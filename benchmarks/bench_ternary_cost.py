"""Experiment E7 — ternary simulation cost scaling (paper §5.4).

The paper quotes [6]: ternary simulation is O(n^2) in the number of
gates — at most 2n sweep states with n evaluations each.  We measure
settling time on inverter chains of growing length and check the growth
is polynomial (time ratio bounded by ~cubic in the size ratio, allowing
interpreter noise), not exponential.

A second experiment pits the scalar settle (:func:`ternary.settle`,
which runs the compiled arena kernel) against the seed's sweep
implementation (preserved in ``tests/fuzzer/reference.py``) on the largest
bundled benchmark: 4.1–4.3x measured on a 2-core VM under Python 3.11
(2.9x for the per-gate worklist engine the kernel replaced), with a
1.5x floor asserted (noise headroom for shared CI runners); the printed
ratio keeps regressions visible in CI logs.

A third experiment benchmarks wide packed fault simulation: the arena
walk kernel (:meth:`SimEngine.walk`) against the PR-5 chunked path,
reconstructed inline as a list of 64-machine engines, each re-settling
every cycle through the state-passing :meth:`SimEngine.settle` (which
reloads the state into the kernel per call; the per-gate-closure
worklist engine it originally ran on no longer exists).  At a 2560-machine universe the walk kernel
measures ~24x (and the gap grows with width); a ≥10x floor and an
absolute words·gates/sec throughput floor are asserted.

A fourth records, without a floor, what the walk kernels cost to
generate: the source bytes and compile milliseconds of every kernel of
Table 1 (complex) and Table 2 (two-level), split into bridge-free and
bridging kernels (``kernel_source`` in the JSON), so the trajectory of
code generation stays visible next to the run-time figures.  Results
land in ``benchmarks/out/BENCH_ternary_cost.json``.
"""

import json
import random
import re
import time
from pathlib import Path

import pytest

from repro.circuit.netlist import Circuit
from repro.sim import ternary
from repro.sim.engine import engine_for

from fuzzer import reference

CHAIN_SIZES = [8, 16, 32, 64]

OUT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_ternary_cost.json"

# PR-5 reference measurements for the trajectory record (idle machine):
# the chunked splitter at W=2560 on vbe10b, and the monolithic walk it
# replaced at native width.
_PR5_REFERENCE = {
    "chunked_w2560_us_per_pattern": 716.4,
    "monolithic_walk_w40_us_per_pattern": 11.9,
}

_results = {}


@pytest.fixture(scope="session", autouse=True)
def emit_json():
    yield
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(_results, indent=2) + "\n")
    print(f"\nwrote {OUT_PATH}")


def inverter_chain(n: int) -> Circuit:
    """A buffered input driving n chained inverters."""
    c = Circuit(f"chain{n}")
    c.add_input("A")
    prev = "A"
    reset = {"A": 0}
    for i in range(n):
        name = f"g{i}"
        c.add_gate(name, gtype="INV", inputs=[prev])
        reset[name] = (i + 1) % 2
        prev = name
    c.mark_output(prev)
    c.set_reset(reset)
    return c.finalize()


@pytest.mark.parametrize("n", CHAIN_SIZES)
def test_ternary_settle_chain(benchmark, n):
    circuit = inverter_chain(n)
    reset = circuit.require_reset()
    started = circuit.apply_input_pattern(reset, 1)
    start_ts = ternary.from_binary(started, circuit.n_signals)

    result = benchmark(lambda: ternary.settle(circuit, start_ts))
    assert ternary.is_definite(result)


def test_growth_is_polynomial():
    times = {}
    for n in (16, 64):
        circuit = inverter_chain(n)
        started = circuit.apply_input_pattern(circuit.require_reset(), 1)
        start_ts = ternary.from_binary(started, circuit.n_signals)
        reps = 20
        t0 = time.perf_counter()
        for _ in range(reps):
            ternary.settle(circuit, start_ts)
        times[n] = (time.perf_counter() - t0) / reps
    ratio = times[64] / times[16]
    # O(n^2) predicts ~16x; leave generous headroom for noise, but an
    # exponential blow-up (2^48) is firmly excluded.
    assert ratio < 200, f"settling cost ratio {ratio:.1f} looks super-polynomial"


# -- engine vs seed implementation on the largest bundled benchmark ------


def _settle_workload(circuit):
    """The CSSG-style settle workload: every input vector from reset."""
    reset = circuit.require_reset()
    n = circuit.n_signals
    starts = []
    for pattern in range(1 << circuit.n_inputs):
        started = circuit.apply_input_pattern(reset, pattern)
        starts.append(ternary.from_binary(started, n))
    return starts


def test_engine_speedup_vs_seed_on_largest_benchmark():
    from repro.benchmarks_data import TABLE1_NAMES, load_benchmark

    circuit = max(
        (load_benchmark(name, "complex") for name in TABLE1_NAMES),
        key=lambda c: c.n_signals,
    )
    starts = _settle_workload(circuit)
    # Warm both paths (engine compilation happens here, outside timing),
    # and check bit-identical results while at it.
    for ts in starts:
        assert ternary.settle(circuit, ts) == reference.settle(circuit, ts)

    def measure(fn, reps=20):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(reps):
                for ts in starts:
                    fn(circuit, ts)
            best = min(best, (time.perf_counter() - t0) / reps)
        return best

    t_legacy = measure(reference.settle)
    t_engine = measure(ternary.settle)
    speedup = t_legacy / t_engine
    print(
        f"\n{circuit.name} (n_signals={circuit.n_signals}): "
        f"seed {1e6 * t_legacy:.1f}us vs engine {1e6 * t_engine:.1f}us "
        f"per {len(starts)}-vector sweep -> {speedup:.1f}x"
    )
    _results["engine_settle"] = {
        "benchmark": circuit.name,
        "n_signals": circuit.n_signals,
        "seed_us_per_sweep": round(1e6 * t_legacy, 1),
        "engine_us_per_sweep": round(1e6 * t_engine, 1),
        "speedup": round(speedup, 2),
    }
    # Measured ~2.6x on an idle machine; the asserted floor leaves
    # headroom for noisy shared CI runners and interpreter-version
    # variance — the printed ratio above is what CI logs watch.
    assert speedup >= 1.5, f"engine speedup {speedup:.2f}x below the 1.5x floor"


# -- packed fault simulation: arena walk vs the PR-5 chunked kernel ------


class Pr5ChunkedSim:
    """The PR-5 wide-universe path, reconstructed: split the fault list
    into 64-machine engines and re-settle each per cycle through the
    state-passing path, driving the inputs into per-signal word lists
    and settling from the input mask.  This is the control flow the old
    ``ChunkedFaultSim`` used; only the settle under it is now the kernel
    rather than the worklist engine."""

    def __init__(self, circuit, faults, chunk_width=64):
        self.circuit = circuit
        self.engines = [
            engine_for(circuit, faults[o:o + chunk_width])
            for o in range(0, len(faults), chunk_width)
        ]
        self.chunk_width = chunk_width

    def observe(self, state, good):
        low, high = state
        det = 0
        for out in self.circuit.outputs:
            if (good >> out) & 1:
                det |= low[out] & ~high[out]
            else:
                det |= high[out] & ~low[out]
        return det

    def run(self, reset, patterns, goods):
        cw = self.chunk_width
        n_inputs = self.circuit.n_inputs
        imask = (1 << n_inputs) - 1
        states = []
        for e in self.engines:
            low, high = e.reset_words(reset)
            e.settle(low, high)
            states.append((low, high))
        det = 0
        for off, s in enumerate(states):
            det |= self.observe(s, reset) << (off * cw)
        for p, g in zip(patterns, goods):
            for off, (e, (low, high)) in enumerate(zip(self.engines, states)):
                for i in range(n_inputs):
                    if (p >> i) & 1:
                        low[i], high[i] = 0, e.ones
                    else:
                        low[i], high[i] = e.ones, 0
                e.settle(low, high, imask)
                det |= self.observe((low, high), g) << (off * cw)
        return det


def test_packed_fault_sim_speedup_and_throughput():
    """Arena walk ≥10x over the PR-5 chunked kernel on a 2560-machine
    universe (measured ~24x), with an absolute throughput floor in
    fault-words x gate-evals per second."""
    from repro.benchmarks_data import TABLE1_NAMES, load_benchmark
    from repro.circuit.faults import fault_universe
    from repro.sgraph.cssg import build_cssg

    circuit = max(
        (load_benchmark(name, "complex") for name in TABLE1_NAMES),
        key=lambda c: c.n_signals,
    )
    base = fault_universe(circuit, "input") + fault_universe(circuit, "output")
    # Replicate the universe to a wide-regime width: identical detection
    # words per replica double as a self-check.
    faults = base * -(-2560 // len(base))
    width = len(faults)
    cssg = build_cssg(circuit)
    patterns = cssg.random_walk(random.Random(3), 100)
    goods = []
    good = cssg.reset
    for pattern in patterns:
        good = cssg.edges[good][pattern]
        goods.append(good)

    old = Pr5ChunkedSim(circuit, faults)
    engine = engine_for(circuit, faults)

    def run_old():
        return old.run(cssg.reset, patterns, goods)

    def run_walk():
        walk = engine.walk(cssg.reset)
        det = walk.observe(cssg.reset)
        for pattern, g in zip(patterns, goods):
            det |= walk.step(pattern, g)
        return det

    assert run_old() == run_walk()  # bit-identical detection words

    def best_of(fn, reps=3):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    t_old = best_of(run_old)
    t_walk = best_of(run_walk)
    speedup = t_old / t_walk
    n_patterns = len(patterns)
    n_words = -(-width // 64)
    # Each pattern settles every gate for every 64-machine word at least
    # once, so this undercounts work — a safe throughput denominator.
    throughput = n_words * len(circuit.gates) * n_patterns / t_walk
    print(
        f"\n{circuit.name} W={width}: pr5-chunked "
        f"{1e6 * t_old / n_patterns:.1f}us/pat vs arena walk "
        f"{1e6 * t_walk / n_patterns:.1f}us/pat -> {speedup:.1f}x, "
        f"{throughput / 1e6:.1f}M words*gates/s"
    )
    _results["packed_fault_sim"] = {
        "benchmark": circuit.name,
        "width": width,
        "n_patterns": n_patterns,
        "pr5_chunked_us_per_pattern": round(1e6 * t_old / n_patterns, 1),
        "arena_walk_us_per_pattern": round(1e6 * t_walk / n_patterns, 1),
        "speedup": round(speedup, 2),
        "words_gates_per_sec": round(throughput),
    }
    _results["pr5_reference"] = _PR5_REFERENCE
    # Measured ~24x on an idle machine (and rising with width); the 10x
    # floor is the PR's acceptance bar with >2x noise headroom.
    assert speedup >= 10.0, (
        f"packed-sim speedup {speedup:.2f}x below the 10x floor"
    )
    # Absolute floor: measured ~13M words*gates/s; even a heavily loaded
    # runner clears 1M, while the PR-5 kernel (~0.6M) cannot.
    assert throughput >= 1e6, (
        f"packed-sim throughput {throughput / 1e6:.2f}M words*gates/s "
        f"below the 1M floor"
    )


# -- walk-kernel source: bytes and compile time per corpus and kind ------


def test_walk_kernel_source_record(monkeypatch):
    """Record (no floor) the source bytes and compile time of the walk
    kernels of both tables: the bridge-free kernel of each circuit (an
    input-fault overlay) and its bridging kernel (the bridging
    universe), each compiled once on a private copy of the circuit."""
    from repro.benchmarks_data import TABLE1_NAMES, TABLE2_NAMES, load_benchmark
    from repro.circuit.parser import netlist_to_text, parse_netlist
    from repro.faultmodels import get_model
    from repro.sim import engine

    record = {}
    real_exec = engine._exec

    def timed_exec(src, filename):
        t0 = time.perf_counter()
        ns = real_exec(src, filename)
        if filename.startswith("<arena:"):
            kind = "bridging" if re.search(r":\d+br", filename) else "bridge_free"
            row = record.setdefault(corpus, {}).setdefault(
                kind, {"kernels": 0, "bytes": 0, "compile_ms": 0.0}
            )
            row["kernels"] += 1
            row["bytes"] += len(src.encode())
            row["compile_ms"] += 1e3 * (time.perf_counter() - t0)
        return ns

    monkeypatch.setattr(engine, "_exec", timed_exec)
    for corpus, names, style in (
        ("table1", TABLE1_NAMES, "complex"),
        ("table2", TABLE2_NAMES, "two-level"),
    ):
        for name in names:
            circuit = parse_netlist(netlist_to_text(load_benchmark(name, style)))
            for model in ("input", "bridging"):
                faults = get_model(model).universe(circuit)
                if faults:
                    engine_for(circuit, faults).walk(circuit.require_reset())
    for rows in record.values():
        for row in rows.values():
            row["compile_ms"] = round(row["compile_ms"], 1)
    total = sum(row["bytes"] for rows in record.values() for row in rows.values())
    print(f"\nwalk-kernel source: {total} bytes; {record}")
    _results["kernel_source"] = record
    assert record["table1"]["bridge_free"]["kernels"] == len(TABLE1_NAMES)
