"""Fault-model workload benchmark: the four universes on Table 1.

For every bundled Table-1 benchmark and every registered fault model,
record the universe size, the collapse ratio, and the wall time of one
full default-flow ATPG run (shared CSSG per circuit, in-process — the
timed work is the ATPG itself).  Results go to
``benchmarks/out/BENCH_faultmodels.json`` (uploaded as a CI artifact)
so the per-model cost trajectory is tracked as the corpus and the
models grow.

Each row also records the arena walk kernels the model's run compiled
(``walk_kernel_compiles``): the four models of a circuit share one
bridge-free kernel, and bridging adds one of its own.

Assertions are deliberately *shape* checks, not speed floors: every
model must run end to end on the whole corpus, stuck-at universes must
match their closed-form sizes, the four models of a circuit compile at
most two walk kernels, and the per-model scenario count must multiply
the corpus as advertised (23 benchmarks × 4 models).
"""

import json
import time
from pathlib import Path

import pytest

from repro.benchmarks_data import TABLE1_NAMES, load_benchmark
from repro.circuit.faults import fault_universe
from repro.core.atpg import AtpgOptions, cssg_for
from repro.core.collapse import collapse_faults, collapse_ratio
from repro.faultmodels import model_names
from repro.flow import Flow
from repro.sim import engine

OUT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_faultmodels.json"

_results = {"models": {}, "totals": {}}


@pytest.fixture(scope="session", autouse=True)
def emit_json():
    yield
    models = _results["models"]
    _results["totals"] = {
        model: {
            "n_faults": sum(r["n_faults"] for r in rows.values()),
            "n_covered": sum(r["n_covered"] for r in rows.values()),
            "n_undetectable": sum(r["n_undetectable"] for r in rows.values()),
            "atpg_seconds": round(
                sum(r["atpg_seconds"] for r in rows.values()), 3
            ),
            "walk_kernel_compiles": sum(
                r["walk_kernel_compiles"] for r in rows.values()
            ),
            "n_benchmarks": len(rows),
        }
        for model, rows in models.items()
    }
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(_results, indent=2) + "\n")
    print(f"\nwrote {OUT_PATH}")
    for model, tot in sorted(_results["totals"].items()):
        print(
            f"  {model:<12} {tot['n_faults']:>5} faults  "
            f"{tot['n_covered']:>5} covered  {tot['atpg_seconds']:>7.2f}s"
        )


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_all_models_run_on(name, monkeypatch):
    kernels = []
    real_exec = engine._exec

    def spy(src, filename):
        if filename.startswith("<arena:"):
            kernels.append(filename)
        return real_exec(src, filename)

    monkeypatch.setattr(engine, "_exec", spy)
    circuit = load_benchmark(name, "complex")
    cssg = cssg_for(circuit, AtpgOptions(seed=0))
    for model in model_names():
        faults = fault_universe(circuit, model)
        reps, _ = collapse_faults(circuit, faults)
        n_kernels = len(kernels)
        t0 = time.perf_counter()
        result = Flow.default().run(
            circuit, AtpgOptions(fault_model=model, seed=0), cssg=cssg
        )
        elapsed = time.perf_counter() - t0
        # Closed-form universe sizes for the stuck-at pair; the new
        # models may legitimately be empty (bridging on chains).
        if model == "input":
            assert len(faults) == 2 * sum(len(g.support) for g in circuit.gates)
        elif model in ("output", "transition"):
            assert len(faults) == 2 * circuit.n_gates
        assert result.n_total == len(faults)
        assert set(result.statuses) == set(faults)
        _results["models"].setdefault(model, {})[name] = {
            "n_faults": len(faults),
            "n_collapsed": len(reps),
            "collapse_ratio": round(collapse_ratio(len(faults), len(reps)), 4),
            "n_covered": result.n_covered,
            "n_undetectable": result.n_undetectable,
            "n_aborted": result.n_aborted,
            "coverage": round(result.coverage, 4),
            "atpg_seconds": round(elapsed, 4),
            "walk_kernel_compiles": len(kernels) - n_kernels,
        }
    # One bridge-free kernel shared by the models, one bridging kernel.
    assert len(kernels) <= 2, kernels


def test_corpus_scenario_multiplier():
    """The registry turns the 23-benchmark corpus into 4x the scenarios
    (one per registered model) — the ROADMAP's new-workload axis."""
    assert len(TABLE1_NAMES) * len(model_names()) == 92
