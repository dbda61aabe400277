"""Circuit construction, validation and packed-state operations."""

import pytest

from repro.circuit.netlist import Circuit
from repro.errors import NetlistError


def small():
    c = Circuit("t")
    c.add_input("A")
    c.add_gate("a", gtype="BUF", inputs=["A"])
    c.add_gate("y", expr="a & ~y")
    c.mark_output("y")
    c.set_reset({"A": 0, "a": 0, "y": 0})
    return c.finalize()


def test_shape():
    c = small()
    assert c.n_inputs == 1
    assert c.n_gates == 2
    assert c.n_signals == 3
    assert c.input_names == ("A",)
    assert c.output_names == ("y",)
    assert [s.name for s in c.signals] == ["A", "a", "y"]
    assert c.outputs == (2,)


def test_index_and_value():
    c = small()
    assert c.index("y") == 2
    state = c.state_of({"A": 1, "a": 1, "y": 0})
    assert c.value(state, "a") == 1
    with pytest.raises(NetlistError):
        c.index("nope")


def test_input_pattern_ops():
    c = small()
    state = c.state_of({"A": 0, "a": 1, "y": 1})
    assert c.input_pattern(state) == 0
    moved = c.apply_input_pattern(state, 1)
    assert c.value(moved, "A") == 1
    assert c.value(moved, "a") == 1  # gates untouched by R_I


def test_stability_and_switching():
    c = small()
    reset = c.require_reset()
    assert c.is_stable(reset)
    poked = c.apply_input_pattern(reset, 1)
    excited = c.excited_gates(poked)
    assert [g.name for g in excited] == ["a"]
    after = c.switch(poked, excited[0])
    assert c.value(after, "a") == 1
    # now y = a & ~y = 1 is excited
    assert [g.name for g in c.excited_gates(after)] == ["y"]


def test_enumerate_stable_states():
    c = small()
    stable = c.enumerate_stable_states()
    assert c.require_reset() in stable
    for s in stable:
        assert c.is_stable(s)


def test_output_values_and_formatting():
    c = small()
    state = c.state_of({"A": 1, "a": 1, "y": 1})
    assert [(state >> o) & 1 for o in c.outputs] == [1]
    assert c.format_state(state) == "A=1 | a=1 y=1"
    assert c.state_bits(state) == "111"


def test_duplicate_names_rejected():
    c = Circuit("t")
    c.add_input("A")
    with pytest.raises(NetlistError):
        c.add_input("A")
    c.add_gate("g", expr="A")
    with pytest.raises(NetlistError):
        c.add_gate("g", expr="A")


def test_undefined_reference_rejected():
    c = Circuit("t")
    c.add_input("A")
    c.add_gate("g", expr="A & zz")
    with pytest.raises(NetlistError, match="zz"):
        c.finalize()


def test_unknown_output_rejected():
    c = Circuit("t")
    c.add_input("A")
    c.add_gate("g", expr="A")
    c.mark_output("nope")
    with pytest.raises(NetlistError):
        c.finalize()


def test_reset_must_cover_all_signals():
    c = Circuit("t")
    c.add_input("A")
    c.add_gate("g", expr="A")
    c.set_reset({"A": 0})
    with pytest.raises(NetlistError, match="missing"):
        c.finalize()


def test_reset_unknown_signal_rejected():
    c = Circuit("t")
    c.add_input("A")
    c.add_gate("g", expr="A")
    c.set_reset({"A": 0, "g": 0, "zz": 1})
    with pytest.raises(NetlistError, match="unknown"):
        c.finalize()


def test_require_reset_without_one():
    c = Circuit("t")
    c.add_input("A")
    c.add_gate("g", expr="A")
    c.finalize()
    with pytest.raises(NetlistError):
        c.require_reset()


def test_finalized_is_immutable():
    c = small()
    with pytest.raises(NetlistError):
        c.add_input("B")
    with pytest.raises(NetlistError):
        c.add_gate("z", expr="A")


def test_gate_needs_expr_or_gtype():
    c = Circuit("t")
    c.add_input("A")
    with pytest.raises(NetlistError):
        c.add_gate("g")
    with pytest.raises(NetlistError):
        c.add_gate("g", expr="A", gtype="BUF")


def test_empty_circuit_rejected():
    with pytest.raises(NetlistError):
        Circuit("t").finalize()


def test_k_default_and_override():
    c = small()
    assert c.k == 4 * 3 + 8
    c2 = Circuit("t2")
    c2.add_input("A")
    c2.add_gate("g", expr="A")
    c2.set_k(5)
    c2.finalize()
    assert c2.k == 5
    with pytest.raises(NetlistError):
        Circuit("t3").set_k(0)


def test_self_feedback_counts_as_support_pin():
    c = small()
    y = next(g for g in c.gates if g.name == "y")
    assert c.index("y") in y.support
