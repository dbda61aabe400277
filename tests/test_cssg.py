"""CSSG construction: pruning, determinism, justification, methods."""

import random

import pytest

from repro.circuit.parser import parse_netlist
from repro.errors import StateGraphError
from repro.sgraph.cssg import build_cssg
from repro.sim import ternary


def test_celem_cssg_shape(celem):
    cssg = build_cssg(celem)
    assert cssg.reset == celem.require_reset()
    assert cssg.n_states == 6
    assert cssg.n_edges == 14
    # Every rejected vector on this circuit is a non-confluent race.
    assert cssg.stats.n_nonconfluent > 0
    assert cssg.stats.n_oscillating == 0


def test_edges_are_deterministic_and_stable(celem):
    cssg = build_cssg(celem)
    for s, edges in cssg.edges.items():
        assert celem.is_stable(s)
        for pattern, t in edges.items():
            assert pattern != celem.input_pattern(s)
            assert celem.is_stable(t)
            assert celem.input_pattern(t) == pattern
            assert t in cssg.states


def test_edges_match_ternary_simulation(celem):
    """Exact-method edges must agree with a definite ternary verdict."""
    cssg = build_cssg(celem, method="exact")
    for s, edges in cssg.edges.items():
        for pattern, t in edges.items():
            result = ternary.apply_pattern(
                celem, ternary.from_binary(s, celem.n_signals), pattern
            )
            if ternary.is_definite(result):
                assert ternary.to_binary(result) == t


def test_exact_and_ternary_methods_agree_on_si_circuit(celem):
    exact = build_cssg(celem, method="exact")
    tern = build_cssg(celem, method="ternary")
    # Ternary is conservative: its edges are a subset of the exact ones
    # (and on this circuit they coincide).
    assert tern.states <= exact.states
    for s in tern.edges:
        for pattern, t in tern.edges[s].items():
            assert exact.edges[s][pattern] == t
    assert exact.n_edges == tern.n_edges


def test_oscillating_vector_pruned(oscillator):
    cssg = build_cssg(oscillator)
    assert cssg.valid_patterns(cssg.reset) == {}
    assert cssg.stats.n_oscillating == 1


def test_k_too_small_prunes_slow_vectors(celem):
    # Raising both inputs takes 3 transitions (a, b, then c); raising a
    # single input takes 1.  With k=1 only the single-input vectors stay.
    cssg = build_cssg(celem, k=1)
    assert cssg.stats.n_too_slow > 0
    assert 0b11 not in cssg.valid_patterns(cssg.reset)
    assert 0b01 in cssg.valid_patterns(cssg.reset)
    full = build_cssg(celem)  # default k admits everything confluent
    assert full.n_edges > cssg.n_edges


def test_max_input_changes_restricts_vectors(celem):
    free = build_cssg(celem)
    limited = build_cssg(celem, max_input_changes=1)
    assert limited.n_edges < free.n_edges
    for s, edges in limited.edges.items():
        cur = celem.input_pattern(s)
        for pattern in edges:
            assert bin(pattern ^ cur).count("1") == 1


def test_unknown_method_rejected(celem):
    with pytest.raises(StateGraphError, match="unknown CSSG method"):
        build_cssg(celem, method="magic")


def test_method_registry_builders(celem):
    from repro.sgraph.cssg import CSSG_METHODS

    assert CSSG_METHODS == ("exact", "hybrid", "symbolic", "ternary")
    exact = build_cssg(celem, method="exact")
    for name in CSSG_METHODS:
        cssg = build_cssg(celem, method=name)
        assert cssg.method == name
        assert cssg.states == exact.states


def test_build_records_method(celem):
    for method in ("exact", "ternary", "hybrid", "symbolic"):
        assert build_cssg(celem, method=method).method == method


def test_cap_states_enforced_by_every_method():
    from repro.benchmarks_data import load_benchmark

    circuit = load_benchmark("dff", "complex")  # 6 stable states
    for method in ("exact", "ternary", "hybrid", "symbolic"):
        with pytest.raises(StateGraphError, match="exceeded 3 stable states"):
            build_cssg(circuit, method=method, cap_states=3)


def test_auto_resolution_picks_symbolic_for_large_state_spaces(celem):
    from repro.core.atpg import AtpgOptions, resolve_cssg_method

    assert resolve_cssg_method(celem, AtpgOptions()) == "hybrid"
    tiny_limit = AtpgOptions(auto_exact_limit=celem.n_signals - 1)
    assert resolve_cssg_method(celem, tiny_limit) == "symbolic"
    explicit = AtpgOptions(cssg_method="ternary")
    assert resolve_cssg_method(celem, explicit) == "ternary"


def test_missing_reset_rejected():
    c = parse_netlist(".inputs A\n.gate g BUF A\n.outputs g\n")
    with pytest.raises(Exception):
        build_cssg(c)


def test_unstable_reset_that_settles_is_accepted():
    c = parse_netlist(
        ".inputs A\n.gate g BUF A\n.outputs g\n.reset A=1 g=0\n"
    )
    cssg = build_cssg(c)
    assert c.is_stable(cssg.reset)
    assert c.value(cssg.reset, "g") == 1


def test_bfs_tree_and_justify(celem):
    cssg = build_cssg(celem)
    dist, parent = cssg.bfs_tree()
    assert dist[cssg.reset] == 0
    assert set(dist) == cssg.states
    up = celem.state_of({"A": 1, "B": 1, "a": 1, "b": 1, "c": 1})
    patterns, reached = cssg.justify([up])
    assert reached == up
    assert len(patterns) == dist[up]
    assert cssg.run(patterns)[-1] == up


def test_justify_unreachable_returns_none(celem):
    cssg = build_cssg(celem)
    bogus = celem.state_of({"A": 1, "B": 0, "a": 0, "b": 1, "c": 1})
    assert cssg.justify([bogus]) is None
    assert cssg.justify([]) is None


def test_run_rejects_invalid_pattern(celem):
    cssg = build_cssg(celem)
    with pytest.raises(StateGraphError):
        cssg.run([celem.input_pattern(cssg.reset)])


def test_random_walk_stays_on_edges(celem):
    cssg = build_cssg(celem)
    rng = random.Random(0)
    patterns = cssg.random_walk(rng, 20)
    assert len(patterns) == 20
    cssg.run(patterns)  # must not raise


def test_cap_states_enforced(celem):
    with pytest.raises(StateGraphError):
        build_cssg(celem, cap_states=2)
