"""Symbolic CSSG benchmark: explicit exact vs symbolic construction.

Builds the CSSG of the largest bundled Table-1 specs both ways, checks
the two graphs are equal, and writes the timings and BDD peaks to
``benchmarks/out/BENCH_symbolic.json``.  No speed assertion: at ≤13
signals explicit enumeration is expected to win; the JSON row records
the trajectory as the corpus grows.  The arena kernel's answers are
checked against the seed BDD manager in ``tests/test_symbolic_diff.py``.

``wide_handshake`` is the reorder-sensitive image workload
``bench_observability.py`` times with telemetry armed and disarmed.
"""

import json
import time
from pathlib import Path

import pytest

from repro.benchmarks_data import load_benchmark
from repro.circuit.netlist import Circuit
from repro.sgraph.cssg import build_cssg

OUT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_symbolic.json"

_results = {}


@pytest.fixture(scope="session", autouse=True)
def emit_json():
    yield
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(_results, indent=2) + "\n")
    print(f"\nwrote {OUT_PATH}")


def best_of(fn, reps=2):
    result = None
    elapsed = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        elapsed = min(elapsed, time.perf_counter() - t0)
    return elapsed, result


def wide_handshake(m):
    """``m`` buffered request lines and a completion-tree ack.

    Declaration order puts all inputs before all buffers, so each
    (input, buffer) pair sits ``m`` levels apart: the pattern that is
    exponential under a fixed variable order."""
    c = Circuit(f"wide{m}")
    reset = {}
    for i in range(m):
        c.add_input(f"I{i}")
        reset[f"I{i}"] = 0
    for i in range(m):
        c.add_gate(f"b{i}", gtype="BUF", inputs=[f"I{i}"])
        reset[f"b{i}"] = 0
    c.add_gate("ack", expr=" & ".join(f"b{i}" for i in range(m)))
    reset["ack"] = 0
    c.mark_output("ack")
    c.set_reset(reset)
    return c.finalize()


def test_cssg_build_timing_on_largest_specs():
    """Explicit exact vs symbolic CSSG build on the biggest bundled
    specs — equality-checked, timings recorded for the trajectory."""
    rows = []
    for name in ("master-read", "trimos-send", "vbe10b"):
        circuit = load_benchmark(name, "complex")
        t_explicit, explicit = best_of(
            lambda c=circuit: build_cssg(c, method="exact")
        )
        t_symbolic, symbolic = best_of(
            lambda c=circuit: build_cssg(c, method="symbolic")
        )
        assert symbolic.states == explicit.states
        assert symbolic.edges == explicit.edges
        rows.append(
            {
                "name": name,
                "n_signals": circuit.n_signals,
                "cssg_states": explicit.n_states,
                "cssg_edges": explicit.n_edges,
                "tcsg_states": symbolic.stats.n_tcsg_states,
                "explicit_ms": round(1000 * t_explicit, 2),
                "symbolic_ms": round(1000 * t_symbolic, 2),
                "peak_bdd_nodes": symbolic.stats.peak_bdd_nodes,
            }
        )
        print(
            f"\n{name}: explicit {1000 * t_explicit:.1f}ms vs symbolic "
            f"{1000 * t_symbolic:.1f}ms "
            f"({symbolic.stats.n_tcsg_states} TCSG states, "
            f"peak {symbolic.stats.peak_bdd_nodes} nodes)"
        )
    _results["cssg_build"] = rows
