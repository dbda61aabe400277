"""Transition (gross gate-delay) faults: slow-to-rise / slow-to-fall.

A transition fault on signal ``s`` models a defect that makes one
polarity of switch slower than the test clock: a **slow-to-rise** (STR)
output can fall normally but never completes a rising transition within
a test cycle; **slow-to-fall** (STF) is the dual.  Under the gross-delay
assumption (defect delay exceeds the remaining test length — the
standard conservative reading) this has an exact combinational
encoding as a *self-sticky* gate:

    STR:  F'(X, s) = F(X) ∧ s        (can fall; needs s=1 to stay 1)
    STF:  F'(X, s) = F(X) ∨ s        (can rise; needs s=0 to stay 0)

which slots straight into every simulator in the package: the exact
machine patches the self-feedback gate onto the good circuit, the ternary/packed
engine applies a self-read blend mask, and both stay monotone in the
ternary information order, so Algorithms A/B converge exactly as for
the good circuit.

**Two-vector activation.**  In the synchronous framework a transition
fault is tested by an *activate-then-propagate* pair over CSSG edges:
first justify a stable state where ``s`` holds the pre-transition value
(``s = 0`` for STR), then apply a vector whose settling carries ``s``
across — the faulty machine holds the old value and the corrupted state
must be propagated to an output.  :meth:`activation_states` therefore
targets CSSG states with an *outgoing edge that completes the
transition*, falling back to merely-armed states; the product-BFS
differentiation then finds the launch + propagate suffix on its own.
"""

from __future__ import annotations

from typing import Dict, List

from repro.circuit.expr import And, Expr, Or, Var
from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.faultmodels.base import FaultModel

#: ``Fault.value`` encoding: the transition's *destination* value —
#: 1 = slow-to-rise (never completes 0→1), 0 = slow-to-fall.
SLOW_TO_RISE = 1
SLOW_TO_FALL = 0


class TransitionModel(FaultModel):
    """Slow-to-rise / slow-to-fall faults on every gate output."""

    name = "transition"
    kinds = ("transition",)
    universe_label = "transition"

    def universe(self, circuit: Circuit) -> List[Fault]:
        """Two faults (STR, STF) per gate output (primary-input buffer
        gates included), in gate declaration order."""
        faults: List[Fault] = []
        for gate in circuit.gates:
            for value in (SLOW_TO_RISE, SLOW_TO_FALL):
                faults.append(Fault("transition", gate.index, gate.index, value))
        return faults

    def describe(self, circuit: Circuit, fault: Fault) -> str:
        kind = "STR" if fault.value == SLOW_TO_RISE else "STF"
        return f"{circuit.signal_name(fault.site)} {kind}"

    # -- faulty-circuit semantics --------------------------------------

    def replacements(self, circuit: Circuit, fault: Fault) -> Dict[int, Expr]:
        """The self-sticky gate: ``F ∧ s`` (STR) / ``F ∨ s`` (STF)."""
        gate = circuit.gate_at(fault.gate)
        self_var = Var(circuit.signal_name(fault.gate))
        if fault.value == SLOW_TO_RISE:
            return {fault.gate: And((gate.expr, self_var))}
        return {fault.gate: Or((gate.expr, self_var))}

    def engine_overlay(self, engine, fault: Fault, bit: int) -> None:
        """Blend the gate's result with its own current value in machine
        ``bit`` (AND-with-self for STR, OR-with-self for STF)."""
        if fault.value == SLOW_TO_RISE:
            engine.self_and[fault.gate] = engine.self_and.get(fault.gate, 0) | (
                1 << bit
            )
        else:
            engine.self_or[fault.gate] = engine.self_or.get(fault.gate, 0) | (
                1 << bit
            )

    # -- structural collapsing -----------------------------------------

    def collapse_signature(self, circuit: Circuit, fault: Fault):
        """Truth table of the sticky function over ``support ∪ {s}``.

        Sound through the same bit-identical-netlist argument as
        stuck-at collapsing — and provably the *identity* partition:
        ``F∧s ≡ F∨s`` would need ``F ≡ 0`` at ``s=0`` and ``F ≡ 1`` at
        ``s=1`` simultaneously, impossible for a function of the other
        inputs alone.  Registered anyway so a collapse-enabled flow
        treats transition universes uniformly (and cheaply: supports are
        small)."""
        from repro._bits import set_bit
        from repro.circuit.expr import eval_binary

        gate = circuit.gate_at(fault.gate)
        signals = sorted(set(gate.support) | {fault.gate})
        rows = []
        for assignment in range(1 << len(signals)):
            state = 0
            for j, sig in enumerate(signals):
                state = set_bit(state, sig, (assignment >> j) & 1)
            fn = eval_binary(gate.program, state)
            own = (state >> fault.gate) & 1
            if fault.value == SLOW_TO_RISE:
                rows.append(fn & own)
            else:
                rows.append(fn | own)
        # Tagged: sticky tables must never alias a stuck-at signature
        # (whose cross-kind sharing is intentional; see collapse_faults).
        return ("transition", gate.index, tuple(rows))

    # -- excitation ----------------------------------------------------

    def excites(self, circuit: Circuit, fault: Fault, state: int) -> bool:
        """*Armed* when the signal holds the pre-transition value (0 for
        STR): only from there can the missing transition be launched."""
        return ((state >> fault.site) & 1) != fault.value

    def activation_states(self, cssg, dist: Dict[int, int], fault: Fault) -> List[int]:
        """Prefer armed states with an outgoing CSSG edge that carries
        the signal across the slow transition — the two-vector
        activate-then-propagate launch points; fall back to all armed
        states when no edge completes the transition (the product BFS
        may still excite it transiently)."""
        site, dest = fault.site, fault.value
        armed = [
            s
            for s in cssg.states
            if s in dist and ((s >> site) & 1) != dest
        ]
        launching = [
            s
            for s in armed
            if any(
                ((t >> site) & 1) == dest for t in cssg.edges.get(s, {}).values()
            )
        ]
        chosen = launching if launching else armed
        chosen.sort(key=lambda s: (dist[s], s))
        return chosen

    # -- a-priori undetectability --------------------------------------

    def never_excited_symbolic(
        self, sym, reachable: int, fault: Fault
    ) -> bool:
        """Sound proof over the *transient-inclusive* reachable set: the
        sticky function differs from ``F`` exactly where the gate is
        excited toward the slow polarity (``¬s ∧ F`` for STR, ``s ∧ ¬F``
        for STF).  If no reachable state — stable or mid-settling — ever
        excites that polarity, the good machine never launches the
        transition and the faulty netlist computes identically along
        every reachable trajectory."""
        from repro.bdd.manager import FALSE

        mgr = sym.mgr
        fn = sym.gate_fn[fault.gate]
        if fault.value == SLOW_TO_RISE:
            launch = mgr.apply_and(mgr.nvar(fault.gate), fn)
        else:
            launch = mgr.apply_and(mgr.var(fault.gate), fn ^ 1)
        return mgr.apply_and(reachable, launch) == FALSE

    # The explicit fallback stays the base class's conservative False:
    # a transition can be launched by a purely transient excitation that
    # a stable-states-only CSSG walk cannot rule out.
