"""Word-parallel ternary fault simulation (paper §5.4).

Random TPG and fault simulation both need "the same input sequence run on
many faulty machines".  Parallel simulation packs one faulty machine per
bit of a Python int: signal *i* of the batch holds a pair of W-bit words
``(L[i], H[i])`` with the same (can-be-0, can-be-1) encoding as
:mod:`repro.sim.ternary`.  Because Python ints are arbitrary precision,
one batch simulates the entire fault universe at once.

Fault injection is compiled into per-gate masks:

* an *input* fault ``(g, site, v)`` owns bit *j*: when gate ``g`` reads
  ``site``, bit *j* of the operand words is forced to ``v``;
* an *output* fault forces bit *j* of gate ``g``'s evaluation result.

The settle loops live in :mod:`repro.sim.engine` (event-driven worklist,
used by the state-passing methods here) and :mod:`repro.sim.arena` (the
compiled walk kernel) — this module is a thin adapter that owns batch
state layout, fault masks, and observation.  A ``FaultBatch`` of width 1
is bit-for-bit equivalent to the scalar engine (a property the test
suite checks against the reference implementation in
:mod:`repro.sim.legacy`); the arena walk behind :meth:`FaultBatch.walk`
is checked the same way by ``tests/test_arena.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.sim.engine import engine_for

BatchState = Tuple[Tuple[int, ...], Tuple[int, ...]]


class FaultBatch:
    """Simulates one circuit under W simultaneous single-fault hypotheses.

    Usage::

        batch = FaultBatch(circuit, faults)
        state = batch.reset_and_settle()
        state = batch.apply(state, pattern)
        detected |= batch.observe(state, good_state)

    ``observe`` returns a W-bit mask of machines whose outputs *definitely*
    differ from the good circuit.  Construction is cheap for a repeated
    (circuit, faults) pair: the compiled engine behind it is cached.
    """

    def __init__(self, circuit: Circuit, faults: Sequence[Fault]):
        self.circuit = circuit
        self.faults = list(faults)
        self.width = len(self.faults)
        self.engine = engine_for(circuit, tuple(self.faults), width=self.width)
        self.ones = self.engine.ones
        self.pin_force = self.engine.pin_force
        self.out_force = self.engine.out_force

    # -- state helpers ---------------------------------------------------

    def broadcast(self, state: int) -> BatchState:
        """Replicate a binary circuit state across all W machines."""
        L, H = self.engine.broadcast(state)
        return (tuple(L), tuple(H))

    def settle(self, state: BatchState) -> BatchState:
        """Batched Algorithm A then Algorithm B with inputs held."""
        low = list(state[0])
        high = list(state[1])
        self.engine.settle(low, high)
        return (tuple(low), tuple(high))

    def reset_and_settle(self, reset_state: Optional[int] = None) -> BatchState:
        """Force the reset state on every machine and settle.

        Machines carrying an *output* fault get the stuck node pre-set to
        its stuck value (the node never held the fault-free reset value;
        see :func:`repro.sim.ternary.settle_from_reset`).
        """
        if reset_state is None:
            reset_state = self.circuit.require_reset()
        low, high = self.engine.broadcast(reset_state)
        for gate_index, (f0, f1) in self.out_force.items():
            low[gate_index] = (low[gate_index] | f0) & ~f1
            high[gate_index] = (high[gate_index] | f1) & ~f0
        self.engine.settle(low, high)
        return (tuple(low), tuple(high))

    def apply(self, state: BatchState, pattern: int) -> BatchState:
        """One synchronous test cycle: drive inputs, settle every machine.

        Accepts arbitrary states, like the historical implementation:
        every gate is re-examined.  Walk-style callers holding states
        this class itself produced should use :meth:`apply_settled`."""
        low = list(state[0])
        high = list(state[1])
        ones = self.ones
        for i in range(self.circuit.n_inputs):
            if (pattern >> i) & 1:
                low[i], high[i] = 0, ones
            else:
                low[i], high[i] = ones, 0
        self.engine.settle(low, high)
        return (tuple(low), tuple(high))

    def apply_settled(self, state: BatchState, pattern: int) -> BatchState:
        """Fast-path test cycle for **settled** states (as produced by
        :meth:`reset_and_settle` / :meth:`settle` / this method): only
        the fanout of the inputs that actually changed is re-examined.
        Feeding an unsettled state here returns garbage."""
        low = list(state[0])
        high = list(state[1])
        self.engine.apply_pattern(low, high, pattern)
        return (tuple(low), tuple(high))

    def observe(self, state: BatchState, good_state: int) -> int:
        """W-bit mask of machines with a definite output difference."""
        low, high = state
        detected = 0
        for out in self.circuit.outputs:
            if (good_state >> out) & 1:
                detected |= low[out] & ~high[out]
            else:
                detected |= high[out] & ~low[out]
        return detected

    def machine_state(self, state: BatchState, j: int) -> Tuple[int, int]:
        """Extract machine ``j`` as a scalar ternary (L, H) pair."""
        low, high = state
        sl = 0
        sh = 0
        for i in range(self.circuit.n_signals):
            sl |= ((low[i] >> j) & 1) << i
            sh |= ((high[i] >> j) & 1) << i
        return (sl, sh)

    def walk(self, reset_state: Optional[int] = None) -> "ArenaWalk":
        """Start an arena walk over this batch's fault overlay — the
        fast path for walk-shaped workloads (random TPG, test replay):
        state stays inside the compiled kernel and each cycle is one
        ``step(pattern, good)`` call returning the detection mask.
        Results are bit-identical to the state-passing methods above."""
        from repro.sim.arena import arena_for

        return arena_for(self.circuit, tuple(self.faults), self.width).walk(
            reset_state
        )
