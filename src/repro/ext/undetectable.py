"""A-priori classification of undetectable faults (paper §6).

The paper observes that its 3-phase search "wastes time with no positive
results" on undetectable faults and lists their early classification as
future work.  Two cheap sufficient conditions are implemented here; both
are sound (a classified fault is genuinely undetectable under the CSSG +
stable-state-observation semantics), neither is complete:

* **never excited** — the fault's model proves the faulty functions
  agree with the good ones everywhere the good machine can go, so no
  divergence can ever start.  For stuck-at kinds this is the classic
  check (the site holds the stuck value); bridging and transition
  models prove agreement of the shorted or sticky functions.  Every
  model proves it over the *transient-inclusive* reachable set, since
  excitation can be purely transient: a site that pulses only while
  the circuit settles still drives other gates.  The set comes from
  one symbolic TCSG reachability computation — a superset of the
  states the CSSG's valid vectors pass through, so the verdict holds
  even for excursions the CSSG pruned; each per-fault check is a
  handful of BDD conjunctions, no enumeration.  An explicit walk over
  the CSSG's states and the settling interleavings of its edges
  remains as the ``use_symbolic=False`` fallback for the stuck-at
  kinds (other models conservatively skip it).
* **stable-equivalent** — exhaustive product walk of (good CSSG state,
  faulty ternary state) shows the faulty machine always reaches output-
  identical *definite* stable states.  This is the same search the
  3-phase generator would do, run with a bounded budget up front so the
  per-fault ATPG can be skipped.  Each faulty machine is one lane of the
  classified fault list's overlay on the circuit's arena kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.bdd.manager import FALSE
from repro.circuit.faults import Fault
from repro.errors import StateGraphError
from repro.sgraph.cssg import Cssg
from repro.sgraph.symbolic import SymbolicTcsg
from repro.sim import ternary
from repro.sim.engine import SimEngine, engine_for

NEVER_EXCITED = "never-excited"
STABLE_EQUIVALENT = "stable-equivalent"
POSSIBLY_DETECTABLE = "possibly-detectable"

#: Product states the stable-equivalent walk may explore per fault.
_BUDGET_PER_FAULT = 20_000


@dataclass
class Classification:
    fault: Fault
    verdict: str  # one of the three module constants
    product_states: int = 0


def _never_excited_symbolic(
    sym: SymbolicTcsg, reachable: int, fault: Fault
) -> bool:
    """The never-excited check, dispatched to the fault's model.

    Each model proves its own sound sufficient condition over the
    *transient-inclusive* symbolic TCSG reachable set: the faulty
    functions agree with the good ones on every state the good machine
    can even pass through (for the stuck-at kinds: the site holds the
    stuck value in every such state).  Stable states alone do not
    suffice, since a site may pulse only while the circuit settles."""
    from repro.faultmodels import model_for_kind

    return model_for_kind(fault.kind).never_excited_symbolic(
        sym, reachable, fault
    )


def _never_excited(cssg: Cssg, fault: Fault) -> bool:
    """Explicit fallback, dispatched to the fault's model: the stuck-at
    kinds walk the CSSG's states (a subset of the TCSG stable set,
    hence weaker — kept for ``use_symbolic=False`` and as the
    differential oracle); models whose excitation is transient-
    sensitive (bridging, transition) conservatively return False here,
    leaving the verdict to the stable-equivalent product walk."""
    from repro.faultmodels import model_for_kind

    return model_for_kind(fault.kind).never_excited_explicit(cssg, fault)


def _stable_equivalent(
    cssg: Cssg, engine: SimEngine, j: int
) -> Tuple[Optional[bool], int]:
    """Exhaustive product walk of lane ``j`` of ``engine`` from its
    settled reset state; returns (undetectable?, states explored).

    ``None`` means the budget ran out or an uncertain (Φ-bearing) faulty
    state was met — either way the fault cannot be *proven* undetectable
    cheaply, so it goes to the full 3-phase generator.
    """
    circuit = cssg.circuit
    faulty0 = engine.lane_at_reset(j, cssg.reset)
    if ternary.detects(circuit, cssg.reset, faulty0):
        return False, 0
    seen: Set[Tuple[int, ternary.TernaryState]] = {(cssg.reset, faulty0)}
    stack = [(cssg.reset, faulty0)]
    explored = 0
    while stack:
        good, faulty = stack.pop()
        for pattern in cssg.valid_patterns(good):
            explored += 1
            if explored > _BUDGET_PER_FAULT:
                return None, explored
            ngood = cssg.edges[good][pattern]
            nfaulty = engine.apply_lane(faulty, pattern, j)
            if ternary.detects(circuit, ngood, nfaulty):
                return False, explored
            if not ternary.is_definite(nfaulty):
                # A Φ output could still match; proving undetectability
                # through uncertain states is out of scope for the cheap
                # classifier.
                for out in circuit.outputs:
                    low, high = nfaulty
                    if (low >> out) & 1 and (high >> out) & 1:
                        return None, explored
            key = (ngood, nfaulty)
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return True, explored


def classify_undetectable(
    cssg: Cssg, faults: List[Fault], use_symbolic: bool = True
) -> Dict[Fault, Classification]:
    """Classify each fault before running expensive per-fault ATPG.

    The returned verdicts partition ``faults`` into provably undetectable
    (two reasons) and possibly detectable.  With ``use_symbolic`` (the
    default) the never-excited check runs against the symbolic TCSG
    reachable set — one BDD reachability computation shared by every
    fault; otherwise it walks the CSSG's states and edge settlings.
    The stable-equivalent walk explores at most ``_BUDGET_PER_FAULT``
    product states per fault.
    """
    sym: Optional[SymbolicTcsg] = None
    reachable = FALSE
    if use_symbolic and faults:
        try:
            sym = SymbolicTcsg(cssg.circuit)
            # One transient-inclusive reachability computation shared
            # by every fault.
            reachable = sym.reachable(sym.state_bdd(cssg.reset))
        except StateGraphError:
            sym = None  # fall back to the explicit CSSG walk
    result: Dict[Fault, Classification] = {}
    # The faulty machines are the lanes of one engine over ``faults``.
    engine = engine_for(cssg.circuit, faults)
    for j, fault in enumerate(faults):
        if sym is not None:
            never = _never_excited_symbolic(sym, reachable, fault)
        else:
            never = _never_excited(cssg, fault)
        if never:
            result[fault] = Classification(fault, NEVER_EXCITED)
            continue
        verdict, explored = _stable_equivalent(cssg, engine, j)
        if verdict is True:
            result[fault] = Classification(fault, STABLE_EQUIVALENT, explored)
        else:
            result[fault] = Classification(fault, POSSIBLY_DETECTABLE, explored)
    return result
