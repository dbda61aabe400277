"""The paper's two stuck-at universes as registry models (§1, §5, §6).

* **input stuck-at** — every gate input *pin* (a (gate, source-signal)
  pair, feedback inputs included) stuck at 0 and at 1.  The pin reads a
  constant inside that one gate's evaluation; other readers of the wire
  see the true value.
* **output stuck-at** — every gate output (the primary-input buffer
  gates included) stuck at 0 and at 1.  The gate's function becomes the
  constant, and after the forced reset state the node holds the stuck
  value permanently.

The enumeration, faulty gate functions, collapse tables and excitation
predicates here are byte-identical to the pre-registry implementation —
``tests/test_faultmodels_diff.py`` pins the full-flow payloads on every
Table-1 benchmark against recorded golden digests.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro._bits import set_bit
from repro.circuit.expr import Const, Expr, eval_binary
from repro.circuit.faults import Fault, substitute_signal
from repro.circuit.netlist import Circuit, Gate
from repro.faultmodels.base import FaultModel


class _StuckAtModel(FaultModel):
    """Shared machinery of the two stuck-at universes."""

    # -- excitation ----------------------------------------------------

    def excites(self, circuit: Circuit, fault: Fault, state: int) -> bool:
        """Excited when the fault-site signal holds the opposite of the
        stuck value (paper §5.1)."""
        return ((state >> fault.site) & 1) != fault.value

    # -- structural collapsing -----------------------------------------

    def collapse_signature(
        self, circuit: Circuit, fault: Fault
    ) -> Optional[Hashable]:
        """``(gate, faulty truth table over the gate's support)`` — two
        same-gate faults with equal tables yield bit-identical faulty
        netlists, so merging them is lossless (classic ATPG collapsing:
        AND-input SA0 ≡ output SA0, inverter chains fold end to end)."""
        gate = circuit.gate_at(fault.gate)
        if gate is None:
            return None  # fault on a gateless signal (defensive): own class
        return (gate.index, self._faulty_table(gate, fault))

    def _faulty_table(self, gate: Gate, fault: Fault) -> Tuple[int, ...]:
        """Truth table of the gate's faulty function over its support."""
        support = gate.support
        rows = []
        for assignment in range(1 << len(support)):
            state = 0
            for j, sig in enumerate(support):
                state = set_bit(state, sig, (assignment >> j) & 1)
            if fault.kind == "output":
                rows.append(fault.value)
            else:
                state = set_bit(state, fault.site, fault.value)
                rows.append(eval_binary(gate.program, state))
        return tuple(rows)

    # -- a-priori undetectability --------------------------------------

    def never_excited_symbolic(
        self, sym, reachable: int, fault: Fault
    ) -> bool:
        """Over every reachable state, transient ones included: the site
        holds the stuck value (never excited) and the faulted gate
        computes what the good gate computes — then the faulty netlist
        follows the good one along every trajectory.  Stable states
        alone do not suffice: a site that pulses while the circuit
        settles can drive other gates without ever holding the
        non-stuck value in a stable state."""
        from repro.bdd.manager import FALSE

        mgr = sym.mgr
        site, stuck = fault.site, fault.value
        stuck_lit = mgr.var(site) if stuck else mgr.nvar(site)
        if mgr.apply_and(reachable, stuck_lit ^ 1) != FALSE:
            return False  # some reachable state excites the site
        disagree = mgr.apply_xor(sym.gate_fn[fault.gate], sym.faulty_gate_fn(fault))
        return mgr.apply_and(reachable, disagree) == FALSE

    def never_excited_explicit(self, cssg, fault: Fault) -> bool:
        """The site check walked explicitly: over the CSSG's states and
        every state any interleaving passes through while a CSSG edge
        settles (a valid edge settles acyclically, so this is finite).
        These states are a subset of the TCSG reachable set, hence a
        weaker proof — the ``use_symbolic=False`` fallback and the
        differential oracle.  With the site never excited, the faulted
        gate computes what the good gate computes."""
        from repro._bits import mask
        from repro.sim.engine import compiled

        circuit = cssg.circuit
        excited_signals = compiled(circuit).excited_signals
        imask = mask(circuit.n_inputs)
        site, stuck = fault.site, fault.value
        for state in cssg.states:
            if ((state >> site) & 1) != stuck:
                return False
            for pattern in cssg.valid_patterns(state):
                start = (state & ~imask) | pattern
                seen = {start}
                stack = [start]
                while stack:
                    node = stack.pop()
                    if ((node >> site) & 1) != stuck:
                        return False
                    for gi in excited_signals(node):
                        nxt = node ^ (1 << gi)
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
        return True


class InputStuckAtModel(_StuckAtModel):
    """Single stuck-at faults on gate input pins."""

    name = "input"
    kinds = ("input",)
    universe_label = "input-stuck-at"

    def universe(self, circuit: Circuit) -> List[Fault]:
        """Two faults per gate input pin, in gate declaration order."""
        faults: List[Fault] = []
        for gate in circuit.gates:
            for src in gate.support:
                for value in (0, 1):
                    faults.append(Fault("input", gate.index, src, value))
        return faults

    def describe(self, circuit: Circuit, fault: Fault) -> str:
        return (
            f"{circuit.signal_name(fault.gate)}<-"
            f"{circuit.signal_name(fault.site)} SA{fault.value}"
        )

    def replacements(self, circuit: Circuit, fault: Fault) -> Dict[int, Expr]:
        """The faulted gate's expression reads a constant in place of
        the stuck source signal."""
        gate = circuit.gate_at(fault.gate)
        site_name = circuit.signal_name(fault.site)
        return {fault.gate: substitute_signal(gate.expr, site_name, fault.value)}

    def engine_overlay(self, engine, fault: Fault, bit: int) -> None:
        """Force the pin's operand reads in machine ``bit``."""
        per_gate = engine.pin_force.setdefault(fault.gate, {})
        f0, f1 = per_gate.get(fault.site, (0, 0))
        if fault.value == 0:
            f0 |= 1 << bit
        else:
            f1 |= 1 << bit
        per_gate[fault.site] = (f0, f1)


class OutputStuckAtModel(_StuckAtModel):
    """Single stuck-at faults on gate outputs."""

    name = "output"
    kinds = ("output",)
    universe_label = "output-stuck-at"

    def universe(self, circuit: Circuit) -> List[Fault]:
        """Two faults per gate output, in gate declaration order."""
        faults: List[Fault] = []
        for gate in circuit.gates:
            for value in (0, 1):
                faults.append(Fault("output", gate.index, gate.index, value))
        return faults

    def describe(self, circuit: Circuit, fault: Fault) -> str:
        return f"{circuit.signal_name(fault.site)} SA{fault.value}"

    def replacements(self, circuit: Circuit, fault: Fault) -> Dict[int, Expr]:
        """The gate's function becomes the constant (and
        :meth:`forced_reset` pre-sets the node to it)."""
        return {fault.gate: Const(fault.value)}

    def engine_overlay(self, engine, fault: Fault, bit: int) -> None:
        """Force the gate's result words in machine ``bit``."""
        f0, f1 = engine.out_force.get(fault.gate, (0, 0))
        if fault.value == 0:
            f0 |= 1 << bit
        else:
            f1 |= 1 << bit
        engine.out_force[fault.gate] = (f0, f1)

    def forced_reset(self, circuit: Circuit, fault: Fault, reset_state: int) -> int:
        """Pre-set the stuck node: physically it never held the
        fault-free reset value, and lifting it from the wrong polarity
        would let Algorithm A's lub transient poison feedback loops with
        spurious Φ (see :func:`repro.sim.ternary.settle_from_reset`)."""
        return (reset_state & ~(1 << fault.site)) | (fault.value << fault.site)
