"""Bridging faults: a short between two structurally adjacent nets.

A bridging fault wires two signal nets together; the shorted node
resolves to the AND of the two driven values (**wired-AND**, the
classic CMOS ground-dominant short) or to their OR (**wired-OR**).
Formally, with ``F_a`` / ``F_b`` the two gates' functions, the faulty
circuit drives *both* nets with ``F_a ∧ F_b`` (resp. ``∨``) — every
reader of either net, feedback included, sees the wired value.

**Universe pruning.**  All-pairs bridging is quadratic and mostly
physically meaningless; the universe here is pruned to *structurally
adjacent* nets — unordered pairs of gate-output signals that feed the
same gate (they meet at a gate's input pins, where layout adjacency is
likeliest).  Pairs involving primary-input wires are excluded: input
pads are driven by the tester, and shorts at the pads are the input
stuck-at model's territory.  On a fanout-free circuit whose gates all
have a single input pin (buffer/inverter chains) no two nets ever meet,
so the universe is **empty** — the registry contract callers must
handle (``tests/test_faultmodels.py`` pins it).

**Synchronous testability.**  A bridge is excited exactly in the stable
states where the two nets disagree, so activation states are read
straight off the CSSG node set; justification and differentiation then
run unchanged against the materialized wired netlist (exact semantics)
or the packed blend overlay (ternary semantics).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.circuit.expr import And, Or
from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit, Gate
from repro.faultmodels.base import FaultModel, rebuild_faulty

#: ``Fault.value`` encoding: 0 = wired-AND, 1 = wired-OR.
WIRED_AND = 0
WIRED_OR = 1


def adjacent_pairs(circuit: Circuit) -> List[Tuple[int, int]]:
    """The pruned bridging site list: unordered pairs ``(a, b)`` with
    ``a < b`` of gate-output signals that appear together in some gate's
    support, in first-seen order."""
    n_inputs = circuit.n_inputs
    seen: Set[Tuple[int, int]] = set()
    pairs: List[Tuple[int, int]] = []
    for gate in circuit.gates:
        support = [s for s in gate.support if s >= n_inputs]
        for i, a in enumerate(support):
            for b in support[i + 1 :]:
                pair = (a, b) if a < b else (b, a)
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
    return pairs


class BridgingModel(FaultModel):
    """Wired-AND / wired-OR shorts between structurally adjacent nets."""

    name = "bridging"
    kinds = ("bridging",)
    universe_label = "bridging"

    def universe(self, circuit: Circuit) -> List[Fault]:
        """Two faults (wired-AND, wired-OR) per adjacent net pair;
        empty when no two gate outputs meet at a common gate."""
        faults: List[Fault] = []
        for a, b in adjacent_pairs(circuit):
            for value in (WIRED_AND, WIRED_OR):
                faults.append(Fault("bridging", a, b, value))
        return faults

    def describe(self, circuit: Circuit, fault: Fault) -> str:
        op = "AND" if fault.value == WIRED_AND else "OR"
        return (
            f"{circuit.signal_name(fault.gate)}~"
            f"{circuit.signal_name(fault.site)} wired-{op}"
        )

    # -- faulty-circuit semantics --------------------------------------

    def materialize(self, circuit: Circuit, fault: Fault) -> Circuit:
        """Both bridged gates drive the wired function ``F_a op F_b``
        (each still evaluated over the true wire values of its own
        support)."""
        ga = circuit.gate_at(fault.gate)
        gb = circuit.gate_at(fault.site)
        ctor = And if fault.value == WIRED_AND else Or
        wired = ctor((ga.expr, gb.expr))
        return rebuild_faulty(
            circuit, fault, {fault.gate: wired, fault.site: wired}
        )

    def engine_overlay(self, engine, fault: Fault, bit: int) -> None:
        """Blend each bridged gate's result with its partner's function
        in machine ``bit`` (see ``_codegen_ternary``'s bridge blocks)."""
        for g, partner in ((fault.gate, fault.site), (fault.site, fault.gate)):
            per_gate: Dict[int, Tuple[int, int]] = engine.bridges.setdefault(g, {})
            ma, mo = per_gate.get(partner, (0, 0))
            if fault.value == WIRED_AND:
                ma |= 1 << bit
            else:
                mo |= 1 << bit
            per_gate[partner] = (ma, mo)

    # -- excitation ----------------------------------------------------

    def excites(self, circuit: Circuit, fault: Fault, state: int) -> bool:
        """Excited when the two nets disagree (in a stable state the
        wire values equal the driven values, so ``a ≠ b ⟺ F_a ≠ F_b``)."""
        return ((state >> fault.gate) & 1) != ((state >> fault.site) & 1)

    # -- a-priori undetectability --------------------------------------

    def never_excited_symbolic(
        self, sym, reachable: int, fault: Fault
    ) -> bool:
        """Sound proof over the *transient-inclusive* reachable set: the
        wired function differs from a driver exactly where
        ``F_a ⊕ F_b``; if no reachable state (stable or mid-settling)
        ever has the drivers disagreeing, the faulty netlist computes
        identically to the good one along every reachable trajectory."""
        from repro.bdd.manager import FALSE

        mgr = sym.mgr
        disagree = mgr.apply_xor(
            sym.gate_fn[fault.gate], sym.gate_fn[fault.site]
        )
        return mgr.apply_and(reachable, disagree) == FALSE

    # The explicit fallback stays the base class's conservative False:
    # CSSG states are stable-only, and a bridge can be excited by a
    # purely transient driver disagreement mid-settling, which an
    # enumerative stable-state walk cannot rule out.
