"""Symbolic (BDD) traversal vs the explicit machinery — exact agreement."""

import pytest

from repro.benchmarks_data import TABLE1_NAMES, load_benchmark
from repro.circuit.netlist import Circuit
from repro.sgraph.cssg import build_cssg
from repro.sgraph.explore import settle_report
from repro.sgraph.symbolic import SymbolicTcsg


def explicit_tcsg_reachable(circuit, reset):
    """All states reachable in test mode (R_I union R_delta), explicitly."""
    seen = {reset}
    stack = [reset]
    m = circuit.n_inputs
    while stack:
        s = stack.pop()
        if circuit.is_stable(s):
            cur = circuit.input_pattern(s)
            for pattern in range(1 << m):
                if pattern == cur:
                    continue
                t = circuit.apply_input_pattern(s, pattern)
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        for gate in circuit.excited_gates(s):
            t = circuit.switch(s, gate)
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def test_gate_functions_compile(celem):
    sym = SymbolicTcsg(celem)
    c = next(g for g in celem.gates if g.name == "c")
    for state in range(1 << celem.n_signals):
        assignment = [(state >> i) & 1 for i in range(celem.n_signals)]
        assert sym.mgr.eval(sym.gate_fn[c.index], assignment) == celem.gate_eval(
            c, state
        )


def test_stable_set_matches_enumeration(celem):
    sym = SymbolicTcsg(celem)
    explicit = set(celem.enumerate_stable_states())
    symbolic = set(sym.enumerate_states(sym.stable))
    assert symbolic == explicit
    assert sym.count_states(sym.stable) == len(explicit)


def test_state_bdd_roundtrip(celem):
    sym = SymbolicTcsg(celem)
    reset = celem.require_reset()
    f = sym.state_bdd(reset)
    assert sym.count_states(f) == 1
    assert next(sym.enumerate_states(f)) == reset


def test_reachable_matches_explicit(celem):
    sym = SymbolicTcsg(celem)
    symbolic = set(sym.enumerate_states(sym.reachable()))
    explicit = explicit_tcsg_reachable(celem, celem.require_reset())
    assert symbolic == explicit


def test_k_step_outcome_matches_settle_report(celem):
    sym = SymbolicTcsg(celem)
    k = celem.k
    for s in celem.enumerate_stable_states():
        for pattern in range(1 << celem.n_inputs):
            if pattern == celem.input_pattern(s):
                continue
            started = celem.apply_input_pattern(s, pattern)
            report = settle_report(celem, started)
            valid, succ = sym.k_step_outcome(s, pattern, k)
            assert valid == report.valid(k)
            if valid:
                assert succ == report.unique_stable


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_symbolic_cssg_equals_explicit_on_all_table1_benchmarks(name):
    """The acceptance bar: result-identical (states, edges, reset) to the
    explicit exact builder on the whole Table-1 corpus."""
    circuit = load_benchmark(name, "complex")
    explicit = build_cssg(circuit, method="exact")
    symbolic = build_cssg(circuit, method="symbolic")
    assert symbolic.reset == explicit.reset
    assert symbolic.states == explicit.states
    assert symbolic.edges == explicit.edges
    assert symbolic.k == explicit.k


def test_symbolic_method_fills_kernel_stats():
    circuit = load_benchmark("dff", "complex")
    cssg = build_cssg(circuit, method="symbolic")
    stats = cssg.stats
    assert cssg.method == "symbolic"
    assert stats.n_tcsg_states >= cssg.n_states  # TCSG ⊇ CSSG nodes
    assert stats.peak_bdd_nodes > 0
    assert stats.n_image_iterations > 0
    assert stats.n_vectors_tried >= stats.n_valid > 0


def test_symbolic_respects_max_input_changes():
    circuit = load_benchmark("dff", "complex")
    explicit = build_cssg(circuit, method="exact", max_input_changes=1)
    symbolic = build_cssg(circuit, method="symbolic", max_input_changes=1)
    assert symbolic.states == explicit.states
    assert symbolic.edges == explicit.edges
    full = build_cssg(circuit, method="symbolic")
    assert symbolic.n_edges <= full.n_edges


def test_symbolic_cssg_equals_explicit_on_celem(celem):
    explicit = build_cssg(celem, method="exact")
    symbolic = SymbolicTcsg(celem).build_cssg()
    assert symbolic.states == explicit.states
    assert symbolic.edges == explicit.edges


def test_symbolic_cssg_prunes_oscillation(oscillator):
    symbolic = SymbolicTcsg(oscillator).build_cssg()
    assert symbolic.valid_patterns(symbolic.reset) == {}


def test_symbolic_cssg_prunes_nonconfluence(race):
    symbolic = SymbolicTcsg(race).build_cssg()
    explicit = build_cssg(race, method="exact")
    assert symbolic.states == explicit.states
    assert symbolic.edges == explicit.edges
    # The racy vector AB=10 from reset must be absent.
    assert 0b01 not in symbolic.valid_patterns(symbolic.reset)


def fork_join(n):
    """One input forked to ``n`` buffers joined by an ``n``-input
    C-element, every signal reset to 0: a 2-state CSSG whose settling
    interleaves all 2**n buffer orders."""
    c = Circuit(f"forkjoin{n}")
    c.add_input("A")
    buffers = [f"b{i}" for i in range(n)]
    for b in buffers:
        c.add_gate(b, gtype="BUF", inputs=["A"])
    c.add_gate("c", gtype="CELEM", inputs=buffers)
    c.mark_output("c")
    c.set_reset({s: 0 for s in ["A", "c", *buffers]})
    return c.finalize()


def test_fork_join_build_does_not_thrash():
    """Fork-join N=24 needs about 24k nodes.  A collector that clears
    the operation cache at every pass recomputed what it had dropped
    and allocated 57k."""
    sym = SymbolicTcsg(fork_join(24))
    cssg = sym.build_cssg()
    assert cssg.n_states == 2
    assert sym.mgr.stats.n_allocated <= 30_000
