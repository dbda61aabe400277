"""State-graph construction: codes, consistency, inference, CSC."""

import pytest

from repro.errors import ConsistencyError, SafenessError, StgError
from repro.stg.parser import parse_stg
from repro.stg.reachability import build_state_graph, check_csc, require_csc
from repro.errors import CscError


def test_handshake_state_graph(handshake_stg):
    sg = build_state_graph(handshake_stg)
    assert sg.n_states == 6
    assert len(sg.codes()) == 6  # pure cycle: all codes distinct
    assert sg.code_of(sg.initial) == 0


def test_next_state_value_semantics(handshake_stg):
    sg = build_state_graph(handshake_stg)
    # Initial state: ri+ enabled (an input), outputs quiescent.
    assert {t.signal for t, _ in sg.edges[sg.initial]} == {"ri"}
    assert sg.next_state_value(sg.initial, "ro") == 0
    # After ri+: ro+ becomes enabled -> NS(ro) = 1.
    after = sg.edges[sg.initial][0][1]
    assert sg.next_state_value(after, "ro") == 1
    # A signal holding 1 with no fall enabled keeps NS = 1.
    # Walk to the all-up state.
    sid = sg.initial
    for _ in range(3):
        sid = sg.edges[sid][0][1]
    assert sg.code_of(sid) == 0b111
    assert sg.next_state_value(sid, "ro") == 1


def test_initial_value_inference_vs_explicit():
    text = (
        ".inputs c\n.outputs q qb\n.graph\n"
        "c+ qb-\nqb- q+\nq+ c-\nc- q-\nq- qb+\nqb+ c+\n"
        ".marking { <qb+,c+> }\n"
    )
    inferred = build_state_graph(parse_stg(text))
    explicit = build_state_graph(parse_stg(text + ".initial c=0 q=0 qb=1\n"))
    assert inferred.code_of(inferred.initial) == explicit.code_of(explicit.initial)
    assert inferred.codes() == explicit.codes()


def test_incomplete_initial_rejected():
    text = (
        ".inputs a\n.outputs z\n.graph\na+ z+\nz+ a-\na- z-\nz- a+\n"
        ".marking { <z-,a+> }\n.initial a=0\n"
    )
    with pytest.raises(StgError, match="missing"):
        build_state_graph(parse_stg(text))


def test_consistency_violation_detected():
    # z+ fires twice in a row around the loop: inconsistent.
    text = (
        ".inputs a\n.outputs z\n.graph\n"
        "a+ z+/1\nz+/1 z+/2\nz+/2 a-\na- z-\nz- a+\n"
        ".marking { <z-,a+> }\n"
    )
    with pytest.raises(ConsistencyError):
        build_state_graph(parse_stg(text))


def test_wrong_explicit_initial_caught_by_consistency():
    text = (
        ".inputs a\n.outputs z\n.graph\na+ z+\nz+ a-\na- z-\nz- a+\n"
        ".marking { <z-,a+> }\n.initial a=1 z=0\n"
    )
    with pytest.raises(ConsistencyError):
        build_state_graph(parse_stg(text))


def test_unsafe_net_rejected_during_reachability():
    # Fork without join: both tokens land in p eventually.
    text = (
        ".inputs a\n.outputs y z\n.graph\n"
        "a+ y+ z+\ny+ p\nz+ p\np a-\na- y- z-\ny- q\nz- q\nq a+\n"
        ".marking { q }\n"
    )
    # Place p receives a token from y+ and from z+ before a- consumes
    # one: 2 tokens -> unsafe.
    with pytest.raises(SafenessError):
        build_state_graph(parse_stg(text))


def test_csc_clean_on_handshake(handshake_stg):
    sg = build_state_graph(handshake_stg)
    assert check_csc(sg) == []
    require_csc(sg)  # must not raise


def test_csc_conflict_detected():
    # Two bursts with no internal signal: the code (a=0, z=0) appears
    # both "awaiting a+" (NS(z)=0 later... ) — construct the classic
    # conflict: z must react differently to the same input code.
    text = (
        ".inputs a\n.outputs z\n.graph\n"
        "a+ z+\nz+ a-\na- a+/2\na+/2 z-\nz- a-/2\na-/2 a+\n"
        ".marking { <a-/2,a+> }\n"
    )
    sg = build_state_graph(parse_stg(text))
    conflicts = check_csc(sg)
    assert conflicts
    assert any(sig == "z" for _, _, sig in conflicts)
    with pytest.raises(CscError):
        require_csc(sg)


def test_state_cap():
    text = (
        ".inputs a\n.outputs z\n.graph\na+ z+\nz+ a-\na- z-\nz- a+\n"
        ".marking { <z-,a+> }\n"
    )
    with pytest.raises(StgError, match="exceeds"):
        build_state_graph(parse_stg(text), cap=2)
