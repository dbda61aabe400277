"""CSSG construction: pruning, determinism, justification, methods."""

import random

import pytest

from repro.benchmarks_data import TABLE1_NAMES, TABLE2_NAMES, load_benchmark
from repro.circuit.parser import parse_netlist
from repro.errors import StateGraphError
from repro.sgraph import cssg as cssg_module
from repro.sgraph.cssg import build_cssg
from repro.sgraph.explore import settle_report
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


# -- the edge certificate -------------------------------------------------


def _recording_certifier(monkeypatch):
    """Record every ``(state, start, successor)`` the CSSG's batched
    certificate proves, and count the starts it is shown."""
    proved, shown = [], []
    real = cssg_module._edge_certifier

    def certifier(circuit, k):
        certify = real(circuit, k)

        def record(state, starts):
            out = certify(state, starts)
            shown.extend(starts)
            proved.extend((circuit, k, state, s, t) for s, t in out.items())
            return out

        return record

    monkeypatch.setattr(cssg_module, "_edge_certifier", certifier)
    return proved, shown


def _reference(circuit, start, k, method):
    """The verdict the explorer alone gives ``start``: the successor
    :func:`settle_report` plus the method's fallback accepts, or None."""
    report = settle_report(circuit, start)
    if report.nonconfluent:
        return None
    if report.oscillating or report.truncated:
        if method != "hybrid":
            return None
        settled = ternary.settle(circuit, ternary.from_binary(start, circuit.n_signals))
        return ternary.to_binary(settled) if ternary.is_definite(settled) else None
    return report.unique_stable if report.longest_path <= k else None


@pytest.mark.parametrize(
    "names, style, floor",
    [(TABLE1_NAMES, "complex", 290), (TABLE2_NAMES, "two-level", 130)],
)
@pytest.mark.parametrize("method", ["hybrid", "exact"])
def test_certified_cssg_starts_match_the_explorer(
    monkeypatch, names, style, floor, method
):
    """Every CSSG start the certificate proves has the explorer's
    verdict and successor.  Deterministic floors on the certified
    starts (measured: 298 of 343 on Table 1, 136 of 155 on Table 2,
    under either method); the rest still reach the explorer."""
    proved, shown = _recording_certifier(monkeypatch)
    for name in names:
        build_cssg(load_benchmark(name, style), method=method)
    for circuit, k, _state, start, succ in proved:
        assert _reference(circuit, start, k, method) == succ
    assert floor <= len(proved) < len(shown)


#: A chain of four buffers: raising A takes four transitions.
CHAIN_NET = """
.model chain
.inputs A
.gate a BUF A
.gate b BUF a
.gate c BUF b
.gate d BUF c
.outputs d
.reset A=0 a=0 b=0 c=0 d=0
"""

#: A set latch: y reads itself.
LATCH_NET = """
.model latch
.inputs S
.gate s BUF S
.expr y = s | y
.outputs y
.reset S=0 s=0 y=0
"""

#: Seven buffered inputs: the reset state has 127 starts, more than
#: one settle's :data:`~repro.sim.engine.LANES`.  g's constant reads
#: the lane mask, which differs with the width of the settle.
SEVEN_BUFFERS_NET = """
.model seven
.inputs A B C D E F G
.gate a BUF A
.gate b BUF B
.gate c BUF C
.gate d BUF D
.gate e BUF E
.gate f BUF F
.expr g = G & 1
.outputs a b c d e f g
.reset A=0 B=0 C=0 D=0 E=0 F=0 G=0 a=0 b=0 c=0 d=0 e=0 f=0 g=0
"""


def test_starts_beyond_one_settle_keep_their_order():
    """127 starts settle in two words (64 + 63 lanes).  Under k = 3 a
    start is proved exactly when it moves at most three inputs, in
    either word, with the successor :func:`settle_report` gives it;
    the others are refused, and the explorer finds them too slow."""
    from repro.sim.engine import LANES, engine_for

    circuit = parse_netlist(SEVEN_BUFFERS_NET)
    reset = circuit.require_reset()
    patterns = range(1, 1 << circuit.n_inputs)
    starts = [circuit.apply_input_pattern(reset, p) for p in patterns]
    assert LANES < len(starts) < 2 * LANES
    proved = cssg_module._edge_certifier(circuit, 3)(reset, starts)
    assert set(engine_for(circuit)._args) >= {LANES, len(starts) - LANES}
    for pattern, start in zip(patterns, starts):
        report = settle_report(circuit, start)
        assert report.longest_path == bin(pattern).count("1")
        if report.longest_path <= 3:
            assert proved[start] == report.unique_stable
        else:
            assert start not in proved
    assert len(proved) == 7 + 21 + 35


def test_chain_longer_than_k_is_explored_and_counted_too_slow(monkeypatch):
    """The chain's bound is 4: under the netlist's ``.k 3`` the
    certificate refuses the rising edge, which the explorer then counts
    as too slow; under k = 4 it proves every edge."""
    proved, shown = _recording_certifier(monkeypatch)
    cssg = build_cssg(parse_netlist(CHAIN_NET), k=4)
    assert cssg.valid_patterns(cssg.reset) and len(proved) == len(shown)
    proved.clear()
    shown.clear()
    cssg = build_cssg(parse_netlist(CHAIN_NET.replace(".outputs", ".k 3\n.outputs")))
    assert cssg.k == 3
    assert cssg.valid_patterns(cssg.reset) == {}
    assert cssg.stats.n_too_slow == 1
    assert shown and not proved


def test_self_reading_latch_is_refused_and_explored(monkeypatch):
    circuit = parse_netlist(LATCH_NET)
    proved, shown = _recording_certifier(monkeypatch)
    cssg = build_cssg(circuit, method="exact")
    reset = cssg.reset
    set_ = cssg.successor(reset, 1)
    assert circuit.value(set_, "y") == 1
    assert (reset, circuit.apply_input_pattern(reset, 1)) not in {
        (state, start) for _, _, state, start, _ in proved
    }
    assert circuit.apply_input_pattern(reset, 1) in shown


def test_side_cycle_start_is_refused(monkeypatch):
    """The side cycle's definite ternary settle hides a gate-delay
    cycle: the certificate refuses it, the exact method prunes it and
    hybrid takes the ternary verdict, as before."""
    from test_explore import SIDE_CYCLE_NET

    circuit = parse_netlist(SIDE_CYCLE_NET)
    proved, shown = _recording_certifier(monkeypatch)
    exact = build_cssg(circuit, method="exact")
    hybrid = build_cssg(circuit, method="hybrid")
    started = circuit.apply_input_pattern(circuit.require_reset(), 1)
    assert started in shown
    assert started not in {start for _, _, _, start, _ in proved}
    assert exact.successor(exact.reset, 1) is None
    assert exact.stats.n_oscillating == 1
    assert hybrid.successor(hybrid.reset, 1) is not None
