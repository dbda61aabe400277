"""Word-parallel ternary fault simulation (paper §5.4).

Random TPG and fault simulation both need "the same input sequence run on
many faulty machines".  Parallel simulation packs one faulty machine per
bit of a Python int: signal *i* of the batch holds a pair of W-bit words
``(L[i], H[i])`` with the same (can-be-0, can-be-1) encoding as
:mod:`repro.sim.ternary`.  Because Python ints are arbitrary precision,
one batch simulates the entire fault universe at once.

Fault injection is a set of per-gate masks, passed to the circuit's
compiled kernel as arguments:

* an *input* fault ``(g, site, v)`` owns bit *j*: when gate ``g`` reads
  ``site``, bit *j* of the operand words is forced to ``v``;
* an *output* fault forces bit *j* of gate ``g``'s evaluation result.

Every method settles through the circuit's arena walk kernel
(:mod:`repro.sim.arena`) run with the batch's masks; this module is a
thin adapter that owns batch state layout and observation.  Lanes never
interact under the kernel's bitwise operators and the Algorithm A/B
fixpoints are unique, so lane
*j* of a batch is bit-for-bit the scalar machine of fault *j*.  That is
how the three-phase generator and the undetectability classifier run
their per-fault ternary machines (:meth:`FaultBatch.apply_lane`) on
their fault list's overlay, compiling nothing, and what the test suite
checks against the reference implementation in :mod:`repro.sim.legacy`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro._bits import mask
from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.sim.arena import ArenaWalk
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
    differ from the good circuit.  Construction is cheap: the engine of
    a repeated (circuit, faults) pair is cached, and the compiled kernel
    behind it is shared by every overlay of the circuit.
    """

    def __init__(self, circuit: Circuit, faults: Sequence[Fault]):
        self.circuit = circuit
        self.faults = list(faults)
        self.width = len(self.faults)
        self.engine = engine_for(circuit, tuple(self.faults), width=self.width)
        self.ones = self.engine.ones
        self._at_rest: Optional[BatchState] = None

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
        low, high = self.engine.reset_words(reset_state)
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

    def apply_lane(
        self, tstate: Tuple[int, int], pattern: int, j: int
    ) -> Tuple[int, int]:
        """:meth:`apply_settled` for machine ``j`` alone: ``tstate`` is
        its settled scalar ternary state (as :meth:`machine_state`
        extracts it), and so is the result.

        The other lanes rest at a fixpoint of their own machine (see
        :meth:`_rest`), and no input of theirs is driven, so they never
        move: the settle does lane ``j``'s work alone.  Lanes never
        interact and the fixpoints are unique, so lane ``j`` ends at
        exactly the scalar machine's fixpoint."""
        imask = mask(self.circuit.n_inputs)
        low, high = tstate
        nlow = (low & ~imask) | (~pattern & imask)
        nhigh = (high & ~imask) | (pattern & imask)
        changed = (nlow ^ low) | (nhigh ^ high)
        if not changed:
            return tstate
        rest_low, rest_high = self._rest()
        others = self.ones & ~(1 << j)
        L = [(w & others) | (((nlow >> i) & 1) << j) for i, w in enumerate(rest_low)]
        H = [(w & others) | (((nhigh >> i) & 1) << j) for i, w in enumerate(rest_high)]
        self.engine.settle(L, H, changed)
        return self.machine_state((L, H), j)

    def _rest(self) -> BatchState:
        """Every machine settled from all-zero words, computed once.

        A zero pair is neither 0 nor 1, and no lane read through
        :meth:`apply_lane` ever holds it; it only keeps the other lanes'
        words small.  Every kernel operator is monotone in each bit, so
        from zero Algorithm A only raises values and Algorithm B, which
        starts where A's lub leaves every gate at or above its
        evaluation, only lowers them: the settle terminates, at a
        fixpoint of every machine with its inputs at zero."""
        if self._at_rest is None:
            L = [0] * self.circuit.n_signals
            H = list(L)
            self.engine.settle(L, H)
            self._at_rest = (tuple(L), tuple(H))
        return self._at_rest

    def walk(self, reset_state: Optional[int] = None) -> ArenaWalk:
        """Start an arena walk over this batch's fault overlay — the
        fast path for walk-shaped workloads (random TPG, test replay):
        state stays inside the compiled kernel and each cycle is one
        ``step(pattern, good)`` call returning the detection mask.
        Results are bit-identical to the state-passing methods above."""
        return self.engine.walk(reset_state)
