"""3-phase deterministic ATPG (paper §5.1–5.3).

For one target fault the generator runs:

1. **Fault activation** (§5.1) — collect the reachable stable states that
   *excite* the fault, i.e. where the fault-site signal differs from the
   stuck value.  These are read straight off the CSSG node set.

2. **State justification** (§5.2) — drive the good circuit from reset to
   an activation state along the CSSG's shortest-path tree.  The same
   vectors are simulated on the *faulty* machine: if corruption shows at
   the outputs in **every** possible faulty settling state, the prefix
   already detects the fault (figure 3(a)); if the faulty machine merely
   *may* diverge (figure 3(b)), the full sequence is kept — on silicon
   the fault may be caught earlier, but the generated test cannot rely
   on it.

3. **State differentiation** (§5.3) — breadth-first search over the
   product of (good CSSG state, faulty machine state), trying every
   valid CSSG vector, until the outputs differ for every possible faulty
   behaviour.  BFS yields the shortest differentiating suffix, matching
   the paper's "the sequence resulting in a shorter test length is
   chosen".

Two faulty-machine semantics are available:

* ``"exact"`` (default) — the faulty circuit is the good one with the
  fault's (at most two) gates patched in, simulated with the
  stubborn-set-reduced settling explorer, which keeps every stable
  state and reachable cycle; its state is a *set* of possible stable
  states (see :mod:`repro.core.exact_sim`).  Per fault it compiles one
  small patch, never a whole faulty circuit.  Oscillation or set
  blow-up falls back to ternary, never the reverse.
* ``"ternary"`` — the paper's machinery: Eichelberger simulation with
  the fault injected, conservative about races.  Each fault's machine is
  one lane of the generator's fault-list engine on the circuit's arena
  kernel (:meth:`~repro.sim.engine.SimEngine.apply_lane`), so a run
  compiles no kernel per fault.

Faults that are never excited in any stable state (§5.1's
even-number-of-switches case) skip straight to differentiation from the
reset state.  When the product search exhausts its (finite) space the
fault is *undetectable by any valid synchronous sequence* — the fate of
the redundant logic SIS inserts (paper §6); when it hits the node budget
instead, the fault is reported aborted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.core import exact_sim
from repro.sgraph.cssg import Cssg
from repro.sim import ternary
from repro.sim.engine import SimEngine, engine_for

DETECTED = "detected"
UNDETECTABLE = "undetectable"
ABORTED = "aborted"


class _Fallback(Exception):
    """Exact simulation hit a cap; retry the fault with ternary."""


class _TernaryMachine:
    """Faulty machine under the paper's ternary semantics: lane ``j`` of
    an engine, run alone."""

    def __init__(self, engine: SimEngine, j: int):
        self.engine = engine
        self.j = j

    def reset(self, reset_state: int):
        return self.engine.lane_at_reset(self.j, reset_state)

    def apply(self, state, pattern: int):
        return self.engine.apply_lane(state, pattern, self.j)

    def detects(self, good_state: int, state) -> bool:
        return ternary.detects(self.engine.circuit, good_state, state)


class _ExactMachine:
    """Faulty machine as a set of possible stable states of the good
    circuit with the fault patched in (:class:`exact_sim.PatchedMachine`).

    ``apply`` results are memoised per machine, so per fault: the
    differentiation searches from each activation target and from reset
    keep applying the same vectors to the same state sets.  The memo
    holds the ``None`` (fall back) outcome too, and dies with the fault.
    """

    def __init__(self, circuit: Circuit, fault: Fault, cap: int):
        self.circuit = circuit
        self.faulty = exact_sim.PatchedMachine(circuit, fault)
        self.cap = cap
        self._applied: Dict[
            Tuple[exact_sim.FaultyStates, int], Optional[exact_sim.FaultyStates]
        ] = {}

    def reset(self, reset_state: int):
        if self.faulty.reset_state is not None:
            reset_state = self.faulty.reset_state  # carries the pre-set
        states = exact_sim.faulty_reset_states(self.faulty, reset_state, self.cap)
        if states is None:
            raise _Fallback
        return states

    def apply(self, states, pattern: int):
        key = (states, pattern)
        try:
            nxt = self._applied[key]
        except KeyError:
            nxt = self._applied[key] = exact_sim.faulty_apply(
                self.faulty, states, pattern, self.cap
            )
        if nxt is None:
            raise _Fallback
        return nxt

    def detects(self, good_state: int, states) -> bool:
        return exact_sim.faulty_detects(self.circuit, good_state, states)


@dataclass
class GenerationOutcome:
    """Result of 3-phase generation for one fault."""

    fault: Fault
    status: str  # DETECTED / UNDETECTABLE / ABORTED
    patterns: Tuple[int, ...] = ()
    n_activation_states: int = 0
    justification_len: int = 0
    differentiation_len: int = 0
    detected_during_justification: bool = False
    product_states_explored: int = 0
    semantics: str = "exact"  # which machine produced the outcome
    #: Why an ABORTED fault was given up on: always "product-states"
    #: (the product-BFS node budget ran out).
    reason: str = ""

    @property
    def detected(self) -> bool:
        return self.status == DETECTED


class ThreePhaseGenerator:
    """Per-fault deterministic test generation over a fixed CSSG.

    ``faults`` is the fault list whose one engine runs every ternary
    faulty machine, a lane per fault; a fault outside it gets a
    one-machine engine of its own."""

    def __init__(
        self,
        cssg: Cssg,
        max_product_states: int = 200_000,
        faulty_semantics: str = "exact",
        settle_cap: int = 50_000,
        faults: Sequence[Fault] = (),
    ):
        if faulty_semantics not in ("exact", "ternary"):
            raise ValueError(f"unknown faulty semantics {faulty_semantics!r}")
        self.cssg = cssg
        self.circuit: Circuit = cssg.circuit
        self.max_product_states = max_product_states
        self.faulty_semantics = faulty_semantics
        self.settle_cap = settle_cap
        # Shortest-path tree from reset, shared by all faults (phase 2).
        self._dist, self._parent = cssg.bfs_tree()
        self._faults = tuple(faults)
        self._lane_of = {f: j for j, f in enumerate(self._faults)}
        #: The engine over ``faults``, looked up once, by the first
        #: ternary machine of a listed fault: the cache key hashes every
        #: fault, too much to pay per machine.
        self._engine: Optional[SimEngine] = None

    # -- phase 1 ---------------------------------------------------------

    def activation_states(self, fault: Fault) -> List[int]:
        """Justifiable states the fault's model targets for activation,
        ordered by justification distance from reset.

        Delegated to :meth:`repro.faultmodels.FaultModel.activation_states`:
        for stuck-at kinds these are the reachable stable states where
        the fault site holds the opposite of the stuck value (§5.1); for
        transition faults, the sources of CSSG edges that complete the
        slow transition; for bridging, states where the shorted nets
        disagree."""
        from repro.faultmodels import model_for_kind

        return model_for_kind(fault.kind).activation_states(
            self.cssg, self._dist, fault
        )

    # -- phase 2 ---------------------------------------------------------

    def justification(self, target: int) -> List[int]:
        """Input patterns driving reset to ``target`` along the BFS tree."""
        patterns: List[int] = []
        node = target
        while node != self.cssg.reset:
            prev, pattern = self._parent[node]
            patterns.append(pattern)
            node = prev
        patterns.reverse()
        return patterns

    # -- phase 3 ---------------------------------------------------------

    def differentiate(self, machine, good_start: int, faulty_start, budget: int):
        """BFS for the shortest definitely-differentiating suffix.

        Returns ``(patterns | None, explored)``; None with
        ``explored < budget`` means the reachable product space is
        exhausted (undetectable from here).
        """
        start = (good_start, faulty_start)
        seen: Set[Tuple[int, object]] = {start}
        frontier = [(good_start, faulty_start, ())]
        explored = 0
        while frontier:
            next_frontier = []
            for good, faulty, prefix in frontier:
                for pattern in sorted(self.cssg.valid_patterns(good)):
                    ngood = self.cssg.edges[good][pattern]
                    nfaulty = machine.apply(faulty, pattern)
                    explored += 1
                    if machine.detects(ngood, nfaulty):
                        return list(prefix) + [pattern], explored
                    if explored >= budget:
                        return None, explored
                    key = (ngood, nfaulty)
                    if key not in seen:
                        seen.add(key)
                        next_frontier.append((ngood, nfaulty, prefix + (pattern,)))
            frontier = next_frontier
        return None, explored

    # -- full per-fault flow ----------------------------------------------

    def _machine(self, fault: Fault, semantics: str):
        if semantics == "exact":
            return _ExactMachine(self.circuit, fault, self.settle_cap)
        j = self._lane_of.get(fault)
        if j is None:
            return _TernaryMachine(engine_for(self.circuit, (fault,)), 0)
        if self._engine is None:
            self._engine = engine_for(self.circuit, self._faults)
        return _TernaryMachine(self._engine, j)

    def generate(self, fault: Fault, max_activation_tries: int = 8) -> GenerationOutcome:
        """Run activation -> justification -> differentiation for ``fault``."""
        semantics = self.faulty_semantics
        if semantics == "exact":
            try:
                return self._generate(fault, max_activation_tries, "exact")
            except _Fallback:
                pass
        return self._generate(fault, max_activation_tries, "ternary")

    def _generate(
        self, fault: Fault, max_activation_tries: int, semantics: str
    ) -> GenerationOutcome:
        cssg = self.cssg
        machine = self._machine(fault, semantics)
        activations = self.activation_states(fault)
        budget = self.max_product_states
        explored_total = 0

        # Faulty machine at (forced) reset; observation 0 may already detect.
        faulty_reset = machine.reset(cssg.reset)
        if machine.detects(cssg.reset, faulty_reset):
            return GenerationOutcome(
                fault,
                DETECTED,
                patterns=(),
                n_activation_states=len(activations),
                detected_during_justification=True,
                semantics=semantics,
            )

        tried_targets: List[Optional[int]] = (
            activations[:max_activation_tries] if activations else [None]
        )
        exhausted_everywhere = True
        for target in tried_targets:
            justify: List[int] = [] if target is None else self.justification(target)
            # Replay justification on both machines.
            good = cssg.reset
            faulty = faulty_reset
            for i, pattern in enumerate(justify):
                good = cssg.edges[good][pattern]
                faulty = machine.apply(faulty, pattern)
                if machine.detects(good, faulty):
                    # Figure 3(a): corruption visible on every delay
                    # assignment — the prefix is already a test.
                    return GenerationOutcome(
                        fault,
                        DETECTED,
                        patterns=tuple(justify[: i + 1]),
                        n_activation_states=len(activations),
                        justification_len=i + 1,
                        detected_during_justification=True,
                        semantics=semantics,
                    )
            diff, explored = self.differentiate(
                machine, good, faulty, budget - explored_total
            )
            explored_total += explored
            if diff is not None:
                return GenerationOutcome(
                    fault,
                    DETECTED,
                    patterns=tuple(justify) + tuple(diff),
                    n_activation_states=len(activations),
                    justification_len=len(justify),
                    differentiation_len=len(diff),
                    product_states_explored=explored_total,
                    semantics=semantics,
                )
            if explored_total >= budget:
                exhausted_everywhere = False
                break
        # The product BFS from reset covers every reachable (good, faulty)
        # pair, so a single exhausted search from reset proves
        # undetectability; searches from deeper activation states are
        # subsumed by it.  We re-run from reset only if needed.
        if exhausted_everywhere and tried_targets != [None]:
            diff, explored = self.differentiate(
                machine, cssg.reset, faulty_reset, budget - explored_total
            )
            explored_total += explored
            if diff is not None:
                return GenerationOutcome(
                    fault,
                    DETECTED,
                    patterns=tuple(diff),
                    n_activation_states=len(activations),
                    differentiation_len=len(diff),
                    product_states_explored=explored_total,
                    semantics=semantics,
                )
            if explored_total >= budget:
                exhausted_everywhere = False
        # An exhausted tried-target set always re-proves from reset, so
        # the product-state cap is the only way to abort.
        return GenerationOutcome(
            fault,
            UNDETECTABLE if exhausted_everywhere else ABORTED,
            n_activation_states=len(activations),
            product_states_explored=explored_total,
            semantics=semantics,
            reason="" if exhausted_everywhere else "product-states",
        )
