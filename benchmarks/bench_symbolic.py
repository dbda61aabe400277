"""Symbolic CSSG benchmark: explicit vs symbolic construction.

Builds the CSSG of the largest bundled Table-1 specs both ways (exact
vs symbolic), and of the fork-join family (hybrid — what ``auto``
picks at these sizes — vs symbolic, N = 10..16), checks each pair of
graphs is equal, then builds fork-join at N = 24..40 symbolically only
(hybrid would walk 2**N interleavings), and writes the timings and BDD
node counts to ``benchmarks/out/BENCH_symbolic.json``.  No speed assertion: at ≤13
signals explicit enumeration is expected to win, while fork-join is the
workload the symbolic kernel exists for; the JSON rows record the
trajectory and the data behind ``auto``'s signal-count limit.  The arena
kernel's answers are checked against the seed BDD manager in
``tests/test_symbolic_diff.py``.

``wide_handshake`` is the order-sensitive image workload
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


def fork_join(n):
    """One input ``A`` forked to ``n`` buffers joined by one ``n``-input
    C-element, every signal reset to 0.  The CSSG has 2 states, but
    settling each input change walks all 2**n buffer interleavings, so
    explicit construction is exponential in ``n`` where the symbolic
    image is not."""
    c = Circuit(f"forkjoin{n}")
    c.add_input("A")
    buffers = [f"b{i}" for i in range(n)]
    for b in buffers:
        c.add_gate(b, gtype="BUF", inputs=["A"])
    c.add_gate("c", gtype="CELEM", inputs=buffers)
    c.mark_output("c")
    c.set_reset({s: 0 for s in ["A", "c", *buffers]})
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


def test_fork_join_hybrid_vs_symbolic():
    """Hybrid vs symbolic CSSG build on the fork-join family —
    equality-checked; timings and BDD peaks recorded."""
    rows = []
    for n in (10, 12, 14, 16):
        circuit = fork_join(n)
        t_hybrid, hybrid = best_of(
            lambda c=circuit: build_cssg(c, method="hybrid")
        )
        t_symbolic, symbolic = best_of(
            lambda c=circuit: build_cssg(c, method="symbolic")
        )
        assert symbolic.reset == hybrid.reset
        assert symbolic.states == hybrid.states
        assert symbolic.edges == hybrid.edges
        rows.append(
            {
                "n": n,
                "n_signals": circuit.n_signals,
                "cssg_states": hybrid.n_states,
                "cssg_edges": hybrid.n_edges,
                "hybrid_ms": round(1000 * t_hybrid, 2),
                "symbolic_ms": round(1000 * t_symbolic, 2),
                "peak_bdd_nodes": symbolic.stats.peak_bdd_nodes,
            }
        )
        print(
            f"\nfork-join N={n} ({circuit.n_signals} signals): hybrid "
            f"{1000 * t_hybrid:.1f}ms vs symbolic {1000 * t_symbolic:.1f}ms "
            f"(peak {symbolic.stats.peak_bdd_nodes} nodes)"
        )
    _results["fork_join"] = rows


def test_fork_join_symbolic_scaling():
    """Symbolic-only fork-join builds past hybrid's reach — seconds and
    BDD nodes recorded, no floor; the CSSG keeps its 2 states."""
    rows = []
    for n in (24, 32, 40):
        circuit = fork_join(n)
        t_symbolic, symbolic = best_of(
            lambda c=circuit: build_cssg(c, method="symbolic")
        )
        assert symbolic.n_states == 2
        rows.append(
            {
                "n": n,
                "n_signals": circuit.n_signals,
                "symbolic_s": round(t_symbolic, 3),
                "peak_bdd_nodes": symbolic.stats.peak_bdd_nodes,
            }
        )
        print(
            f"\nfork-join N={n} ({circuit.n_signals} signals): symbolic "
            f"{t_symbolic:.2f}s ({symbolic.stats.peak_bdd_nodes} nodes)"
        )
    _results["fork_join_symbolic"] = rows
