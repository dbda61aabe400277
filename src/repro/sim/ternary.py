"""Scalar ternary simulation — Eichelberger's Algorithms A and B.

A ternary state assigns each signal one of {0, 1, Φ}; Φ is "uncertain".
We pack a state as a pair of ints ``(L, H)``: bit *i* of ``L`` means
"signal *i* can be 0", bit *i* of ``H`` means "signal *i* can be 1".
So 0 = (1,0), 1 = (0,1) and Φ = (1,1) per signal.  Packing keeps states
hashable, which the state-differentiation search (paper §5.3) relies on.

**Algorithm A** repeatedly lifts every gate to the least upper bound of
its current value and its evaluation; unstable signals rise to Φ and
uncertainty propagates until a fixpoint.  **Algorithm B** then repeatedly
re-evaluates every gate; values can only resolve downward (Φ → 0/1).
Both fixpoints exist because the ternary gate operators are monotone in
the information order; because they are *unique* for any fair evaluation
order, this module is a thin adapter over the fault overlay's compiled
arena walk kernel (:mod:`repro.sim.engine`, :mod:`repro.sim.arena`) —
it contains no settle loop of its own, and its results are bit-identical
to the historical sweep implementation the tests keep as their
reference (``tests/fuzzer/reference.py``).

If the final state is fully definite, every stable state reachable under
the unbounded gate-delay model equals it.  That does not rule out a
gate-delay cycle: a gate that reads itself can chase its own value
forever beside a path that settles (``SIDE_CYCLE_NET`` in
``tests/test_explore.py``), and ternary simulation still ends definite.
:func:`repro.core.exact_sim.certify` adds the missing half: when the
gates Algorithm A leaves at Φ read one another without a cycle, every
interleaving is finite.  A remaining Φ conservatively signals a
possible race or oscillation.

A single fault of any registered model can be injected: an ``input``
pin force, an ``output`` constant, a ``bridging`` wired blend, or a
``transition`` self-sticky blend (see :mod:`repro.faultmodels` for the
overlay semantics).  Each fault gets its own one-machine engine (cached
per circuit) on the circuit's shared kernel; the package's per-fault
machines (three-phase generation, the undetectability classifier)
instead run as lanes of their whole fault list's engine
(:meth:`~repro.sim.engine.SimEngine.apply_lane`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro._bits import mask
from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.errors import SimulationError
from repro.sim.engine import SimEngine, engine_for, lane_of

TernaryState = Tuple[int, int]


def from_binary(state: int, n_signals: int) -> TernaryState:
    """Lift a packed binary state to a definite ternary state."""
    m = mask(n_signals)
    return (~state & m, state & m)


def is_definite(tstate: TernaryState) -> bool:
    """True when no signal is Φ."""
    low, high = tstate
    return (low & high) == 0


def to_binary(tstate: TernaryState) -> int:
    """Convert a definite ternary state back to a packed binary state."""
    low, high = tstate
    if low & high:
        raise SimulationError("state contains uncertain (phi) signals")
    return high


def phi_signals(tstate: TernaryState) -> int:
    """Bit mask of the signals whose value is Φ."""
    low, high = tstate
    return low & high


def _engine(circuit: Circuit, fault: Optional[Fault]) -> SimEngine:
    return engine_for(circuit, (fault,) if fault is not None else ())


def _unpack(tstate: TernaryState, n: int) -> Tuple[List[int], List[int]]:
    low, high = tstate
    return (
        [(low >> i) & 1 for i in range(n)],
        [(high >> i) & 1 for i in range(n)],
    )


def settle(
    circuit: Circuit, tstate: TernaryState, fault: Optional[Fault] = None
) -> TernaryState:
    """Run Algorithm A then Algorithm B with primary inputs held.

    Returns the ternary settling result.  When it is definite, every
    stable state reachable under any gate delays from a binary state
    that ``tstate`` covers equals it, but the circuit may still
    oscillate (see the module docstring).
    Accepts arbitrary start states (every gate is re-examined).
    """
    engine = _engine(circuit, fault)
    L, H = _unpack(tstate, circuit.n_signals)
    engine.settle(L, H)
    return lane_of((L, H), 0)


def apply_pattern(
    circuit: Circuit,
    tstate: TernaryState,
    pattern: int,
    fault: Optional[Fault] = None,
) -> TernaryState:
    """One synchronous test cycle: drive the inputs to ``pattern``
    (definite values) and let the circuit settle.

    Accepts arbitrary ``tstate`` values, exactly like the historical
    implementation: every gate is re-examined, so an unsettled start
    state is fully settled rather than silently preserved.  Per-fault
    machines stepping their own settled states run as lanes of their
    fault list's engine instead
    (:meth:`~repro.sim.engine.SimEngine.apply_lane`)."""
    imask = mask(circuit.n_inputs)
    low, high = tstate
    low = (low & ~imask) | (~pattern & imask)
    high = (high & ~imask) | (pattern & imask)
    return settle(circuit, (low, high), fault)


def settle_from_reset(
    circuit: Circuit, reset_state: int, fault: Optional[Fault] = None
) -> TernaryState:
    """Force the reset state (as a tester would) and settle.

    The fault's model may adjust the forced state first
    (:meth:`~repro.faultmodels.FaultModel.forced_reset`): an *output*
    stuck-at pre-sets the stuck node to its stuck value — physically it
    never held the fault-free reset value, and lifting it from the
    wrong polarity would let Algorithm A's lub transient poison
    feedback loops with spurious Φ.  The rest of the circuit is forced
    to the reset values and then settles (paper §4: "forcing s1 as
    reset state").
    """
    if fault is not None:
        from repro.faultmodels import model_for_kind

        reset_state = model_for_kind(fault.kind).forced_reset(
            circuit, fault, reset_state
        )
    return settle(circuit, from_binary(reset_state, circuit.n_signals), fault)


def detects(circuit: Circuit, good_state: int, faulty: TernaryState) -> bool:
    """True when some primary output *definitely* differs.

    The paper (§5.2) requires corruption to show in **all** terminal
    stable states, which is exactly "the faulty output is definite and
    opposite": a Φ output might still match the good machine for some
    delay assignment.
    """
    low, high = faulty
    for out in circuit.outputs:
        good = (good_state >> out) & 1
        fl = (low >> out) & 1
        fh = (high >> out) & 1
        if good == 1 and fl and not fh:
            return True
        if good == 0 and fh and not fl:
            return True
    return False
