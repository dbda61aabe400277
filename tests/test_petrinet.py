"""Petri-net token-game semantics and structural validation."""

import pytest

from repro.errors import SafenessError, StgError
from repro.stg.petrinet import StgBuilder, parse_transition_label


def test_parse_transition_label():
    assert parse_transition_label("a+") == ("a", 1)
    assert parse_transition_label("foo-/2") == ("foo", -1)
    with pytest.raises(StgError):
        parse_transition_label("a")
    with pytest.raises(StgError):
        parse_transition_label("a*/1")


def build_cycle():
    b = StgBuilder("cycle")
    b.add_signal("a", "input")
    b.add_signal("z", "output")
    for src, dst in [("a+", "z+"), ("z+", "a-"), ("a-", "z-"), ("z-", "a+")]:
        b.add_arc(src, dst)
    b.set_marking(["<z-,a+>"])
    return b.build()


def test_enabled_and_fire():
    stg = build_cycle()
    m0 = stg.initial_marking
    enabled = stg.enabled(m0)
    assert [t.label for t in enabled] == ["a+"]
    m1 = stg.fire(m0, enabled[0])
    assert [t.label for t in stg.enabled(m1)] == ["z+"]


def test_fire_disabled_rejected():
    stg = build_cycle()
    z_plus = next(t for t in stg.transitions if t.label == "z+")
    with pytest.raises(StgError):
        stg.fire(stg.initial_marking, z_plus)


def test_safeness_violation_detected():
    b = StgBuilder("unsafe")
    b.add_signal("a", "input")
    b.add_signal("z", "output")
    # Two producers can both deposit into p before z+ consumes: unsafe.
    b.add_arc("a+", "p")
    b.add_arc("a-", "p")
    b.add_arc("p", "z+")
    b.add_arc("a+", "a-")
    b.add_arc("z+", "z-")
    b.add_arc("z-", "a+")
    b.set_marking(["<z-,a+>"])
    stg = b.build()
    m = stg.initial_marking
    m = stg.fire(m, next(t for t in stg.transitions if t.label == "a+"))
    with pytest.raises(SafenessError):
        stg.fire(m, next(t for t in stg.transitions if t.label == "a-"))


def test_transition_without_preset_rejected():
    b = StgBuilder("floating")
    b.add_signal("a", "input")
    b.add_arc("a+", "p")  # a+ has no input place at all
    b.set_marking(["p"])
    with pytest.raises(StgError, match="no input places"):
        b.build()


def test_undeclared_signal_rejected():
    b = StgBuilder("bad")
    b.add_signal("a", "input")
    b.add_arc("a+", "q+")
    b.add_arc("q+", "a+")
    b.set_marking([])
    with pytest.raises(StgError, match="undeclared"):
        b.build()


def test_marking_unknown_place_rejected():
    b = StgBuilder("bad")
    b.add_signal("a", "input")
    b.add_arc("a+", "a-")
    b.add_arc("a-", "a+")
    b.set_marking(["nowhere"])
    with pytest.raises(StgError, match="unknown place"):
        b.build()


def test_invalid_signal_names_rejected():
    b = StgBuilder("bad")
    with pytest.raises(StgError):
        b.add_signal("a b", "input")
    with pytest.raises(StgError):
        b.add_signal("a", "wibble")


def test_duplicate_signals_rejected():
    # Caught at declaration time so the parser can report the line.
    b = StgBuilder("dup")
    b.add_signal("a", "input")
    with pytest.raises(StgError, match="duplicate"):
        b.add_signal("a", "output")
    with pytest.raises(StgError, match="duplicate"):
        b.add_signal("a", "input")


def test_transitions_of():
    stg = build_cycle()
    assert [t.label for t in stg.transitions if t.signal == "z"] == ["z+", "z-"]
