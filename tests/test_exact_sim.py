"""Materialized and patched faulty circuits, and set-based exact fault
simulation."""

import random

import pytest

from repro.benchmarks_data import load_benchmark
from repro.circuit.faults import (
    Fault,
    fault_universe,
    input_fault_universe,
    materialize_fault,
)
from repro.core.exact_sim import (
    PatchedMachine,
    faulty_apply,
    faulty_detects,
    faulty_reset_states,
    read_masks,
)
from repro.faultmodels import model_names
from repro.sgraph.cssg import build_cssg
from repro.sgraph.explore import _stubborn
from repro.sim import ternary
from repro.sim import engine
from repro.sim.engine import compiled, engine_for


def test_materialize_output_fault(celem):
    c = celem.index("c")
    fault = Fault("output", c, c, 1)
    faulty = materialize_fault(celem, fault)
    assert faulty.n_signals == celem.n_signals
    assert [s.name for s in faulty.signals] == [s.name for s in celem.signals]
    gate = next(g for g in faulty.gates if g.name == "c")
    for state in range(1 << faulty.n_signals):
        assert faulty.gate_eval(gate, state) == 1
    # Reset pre-sets the stuck node.
    assert faulty.value(faulty.require_reset(), "c") == 1


def test_materialize_input_fault_is_local(celem):
    c, a = celem.index("c"), celem.index("a")
    fault = Fault("input", c, a, 1)
    faulty = materialize_fault(celem, fault)
    cgate = next(g for g in faulty.gates if g.name == "c")
    # c no longer reads a...
    assert a not in cgate.support
    # ...but a's own buffer is untouched.
    agate = next(g for g in faulty.gates if g.name == "a")
    assert agate.support == (celem.index("A"),)


def test_materialized_matches_injected_ternary(celem):
    """The materialized netlist and on-the-fly injection must agree."""
    cssg = build_cssg(celem)
    for fault in input_fault_universe(celem):
        faulty = materialize_fault(celem, fault)
        injected = ternary.settle_from_reset(celem, cssg.reset, fault)
        materialized = ternary.settle_from_reset(faulty, cssg.reset)
        assert injected == materialized, fault.describe(celem)


def test_reset_states_singleton_for_clean_fault(celem):
    c = celem.index("c")
    fault = Fault("output", c, c, 0)
    faulty = materialize_fault(celem, fault)
    states = faulty_reset_states(faulty, faulty.require_reset())
    assert states is not None and len(states) == 1
    only = next(iter(states))
    assert faulty.is_stable(only)


def test_apply_tracks_all_outcomes(race):
    """On the racy circuit the faulty set grows past one state."""
    fault = Fault("input", race.index("c"), race.index("c"), 0)  # benign
    faulty = materialize_fault(race, fault)
    states = faulty_reset_states(faulty, faulty.require_reset())
    assert states is not None
    after = faulty_apply(faulty, states, 0b01)  # the non-confluent vector
    assert after is not None and len(after) == 2


def test_apply_respects_max_set(race):
    fault = Fault("input", race.index("c"), race.index("c"), 0)
    faulty = materialize_fault(race, fault)
    states = faulty_reset_states(faulty, faulty.require_reset())
    assert faulty_apply(faulty, states, 0b01, max_set=1) is None


def test_faulty_machine_oscillation_and_healing(oscillator):
    # c's pin from d stuck at 0 makes c constant-1: the oscillation is
    # *healed* and the machine settles under the hot vector.
    healed = Fault("input", oscillator.index("c"), oscillator.index("d"), 0)
    faulty = materialize_fault(oscillator, healed)
    states = faulty_reset_states(faulty, faulty.require_reset())
    assert states is not None
    after = faulty_apply(faulty, states, 1)
    assert after is not None and len(after) == 1
    # a's pin stuck high starts the chase right at reset: oscillation,
    # so the exact simulator reports fallback (None).
    hot = Fault("input", oscillator.index("a"), oscillator.index("A"), 1)
    faulty2 = materialize_fault(oscillator, hot)
    assert faulty_reset_states(faulty2, faulty2.require_reset()) is None


def test_detects_requires_all_members_to_differ(celem):
    good = celem.require_reset()  # c = 0
    c = celem.index("c")
    differ = good | (1 << c)
    assert faulty_detects(celem, good, frozenset([differ]))
    assert not faulty_detects(celem, good, frozenset([differ, good]))
    assert not faulty_detects(celem, good, frozenset())


@pytest.mark.parametrize(
    "name,style",
    [("ebergen", "complex"), ("vbe6a", "two-level"), ("converta", "two-level")],
)
def test_patched_machine_is_the_materialized_netlist(name, style):
    """Every fault's patched machine against its materialized netlist:
    the same excited list, order included (the reduced explorer's
    tie-break reads it), on every CSSG state and on random states; the
    same dependence masks; the same forced reset."""
    circuit = load_benchmark(name, style)
    rng = random.Random(f"patch:{name}")
    states = sorted(build_cssg(circuit).states) + [
        rng.getrandbits(circuit.n_signals) for _ in range(64)
    ]
    for model in model_names():
        for fault in fault_universe(circuit, model):
            machine = PatchedMachine(circuit, fault)
            netlist = materialize_fault(circuit, fault)
            assert machine.reset_state == netlist.reset_state
            tables = _stubborn(netlist)
            assert machine.stubborn.cone == tables.cone
            assert machine.stubborn.fan_cone == tables.fan_cone
            assert machine.reads == read_masks(netlist)
            excited = compiled(netlist).excited_signals
            for state in states:
                assert machine.excited_signals(state) == excited(state), (
                    fault,
                    state,
                )


def test_machine_compiles_its_patch_at_its_first_explored_start(celem, monkeypatch):
    """A certified start compiles nothing; the first start the
    certificate refuses compiles the machine's patch, once."""
    compiles = []
    real_exec = engine._exec

    def spy(src, filename):
        compiles.append(filename)
        return real_exec(src, filename)

    monkeypatch.setattr(engine, "_exec", spy)
    faults = input_fault_universe(celem)
    fault = Fault("input", celem.index("a"), celem.index("A"), 1)
    lane = (engine_for(celem, faults), faults.index(fault))
    machine = PatchedMachine(celem, fault, lane)
    states = faulty_reset_states(machine, machine.reset_state)
    assert not [f for f in compiles if f.startswith("<patch:")]
    # B rises with a stuck high: c, which reads itself, is left at Φ.
    after = faulty_apply(machine, states, 0b10)
    after_again = faulty_apply(machine, states, 0b11)
    assert [f for f in compiles if f.startswith("<patch:")] == [
        f"<patch:{machine.name}>"
    ]
    netlist = materialize_fault(celem, fault)
    assert states == faulty_reset_states(netlist, netlist.require_reset())
    assert after == faulty_apply(netlist, states, 0b10)
    assert after_again == faulty_apply(netlist, states, 0b11)
