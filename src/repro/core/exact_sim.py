"""Exact faulty-machine simulation for deterministic test generation.

Ternary simulation is conservative with respect to the unbounded *gate*
delay model: its Φ also covers wire-delay races the model excludes, and
on interlocked complex gates that conservatism can hide perfectly good
tests (the faulty machine dissolves into Φ and no output difference is
ever definite).  The paper accepts the loss during bulk fault simulation
(§5.4) — so do we — but per-fault generation deserves better.

Here the faulty circuit is simulated by exhaustive settling analysis,
as the good circuit is.  A fault rewrites at most two gates, so the
faulty machine is a :class:`PatchedMachine`: the good circuit plus a
patch of the gates its model replaces
(:meth:`repro.faultmodels.FaultModel.replacements`), the classic
fault-simulation idea of simulating each faulty machine as a small
difference from the good one (Ulrich & Baker, "Concurrent simulation
of nearly identical digital networks", IEEE Computer 1974).  No faulty
netlist is built: :func:`repro.circuit.faults.materialize_fault` builds
the same machine as a real netlist, and stays the test-side oracle.
Because a faulty circuit driven by good-circuit-valid vectors may
itself race, the machine state is a **set** of possible stable states:

* applying a vector maps each member through its settling analysis and
  unions the outcomes;
* a fault is *detected* at a cycle when **every** member disagrees with
  the good circuit on some primary output — the paper's "corruption must
  show in all terminal stable states" (§5.2);
* if any member oscillates, exceeds the exploration cap, or the set
  grows beyond ``max_set``, the simulation reports ``None`` and the
  caller falls back to ternary semantics (sound, never optimistic).

Most starts never reach an explorer.  Three-phase hands each machine
its fault's lane of the work list's engine (the arena kernel random TPG
already compiled, :func:`repro.sim.engine.engine_for`), and
:func:`certify` first tries to prove the outcome there with
Eichelberger's Algorithms A and B (Brzozowski & Seger, *Asynchronous
Circuits*, 1995); after a test cycle's drive, A is seeded with the
inputs that moved, since the state driven was stable.  A
over-approximates every value reachable under any gate delays; when the
gates it leaves at Φ read one another without a cycle, every
interleaving is finite, and a definite B result is then the one stable
state every interleaving ends in (``docs/architecture.md`` sketches the
proof).  On Table 2 that settles about 85% of the starts.
A definite B alone proves nothing about cycles: a gate that reads
itself can chase its own value while the ternary result stays definite.

The starts the certificate refuses, and those of a machine with no lane
(a materialized netlist in tests), are explored through this module's
module-level name ``settle_report``, bound to
:func:`repro.sgraph.explore.reduced_settle_report`.  Only the stable
states and the cycle and truncation flags are read here, never the
height, so the stubborn-set-reduced explorer serves: it keeps every
stable state and every reachable cycle (the two theorems in its
docstring).  Its cap counts reduced states, so a start the full
explorer would cut short may finish here with an exact answer instead
of falling back; so may a start the certificate proves, which is never
capped.  The CSSG keeps the full
:func:`repro.sgraph.explore.settle_report`, whose heights its k-bound
needs, for the starts its own certificate refuses.  Both explorers
enumerate excited gates through compiled functions of
:mod:`repro.sim.engine`; a patched machine's is the good circuit's plus
its patch, compiled at the machine's first exploration.

A patched machine settles each ``(start, cap)`` once: its ``settled``
memo answers a repeat (the same start reached from another state set,
or reset again), the ``None`` outcome included.

With metrics armed, each start is counted in
``repro_exact_starts_total{outcome}``: ``certified`` or ``explored``
for a settle that ran, ``memo`` for a repeat the memo answered, so the
labels sum to every start asked for.  Each fallback is counted in
``repro_exact_fallbacks_total{reason}`` (``oscillation``,
``truncation`` or ``max_set``) every time a simulation hands back, a
memo hit included.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Tuple, Union

from repro.circuit.expr import compile_expr, program_vars
from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.faultmodels import model_for_kind
from repro.faultmodels.base import faulty_name
from repro.obs import metrics as _obs
from repro.sgraph.explore import _Stubborn, read_masks, transition_bound
from repro.sgraph.explore import reduced_settle_report as settle_report
from repro.sim.engine import SimEngine, patched_excited

FaultyStates = FrozenSet[int]

#: One start's settle: the stable states (None: fall back to ternary)
#: and the reason of the fall back.
_Outcome = Tuple[Optional[FaultyStates], Optional[str]]


class PatchedMachine:
    """The faulty machine of ``fault`` as the good ``circuit`` plus a
    patch of the (at most two) gates the fault's model replaces.

    * ``lane`` is ``(engine, j)`` when the fault is machine ``j`` of an
      engine over the circuit, else None: :func:`certify` runs there.
    * ``reads`` holds the :func:`~repro.sgraph.explore.read_masks` of
      the patched supports: the certificate's feedback check walks them,
      and the stubborn tables are built from them.
    * ``excited_signals`` is the good circuit's compiled excited-gate
      function with the patched gates re-evaluated, removed and
      re-inserted in ascending gate order: the very list the materialized
      netlist's would return, so the reduced explorer's tie-break, and
      with it every per-start state count, is unchanged.  The patch is
      the machine's only compiled code, compiled on first use, so a
      machine whose every start is certified compiles nothing.
    * ``stubborn`` holds the reduced explorer's dependence masks, built
      on first use from ``reads``: a bridged gate reads its partner's
      support as well, and a table built from the good supports would
      miss those dependences.
    * ``reset_state`` is the good reset as a tester forces it on the
      faulty machine (:meth:`~repro.faultmodels.FaultModel.forced_reset`),
      or None when the circuit has none.
    * ``settled`` memoises :func:`_settled`: ``(start, cap)`` → the
      stable states (None: fall back) and the fallback reason.
    """

    __slots__ = (
        "circuit",
        "fault",
        "name",
        "lane",
        "reads",
        "reset_state",
        "settled",
        "_programs",
        "_excited",
        "_stubborn",
    )

    def __init__(
        self,
        circuit: Circuit,
        fault: Fault,
        lane: Optional[Tuple[SimEngine, int]] = None,
    ):
        model = model_for_kind(fault.kind)
        index_of = {s.name: s.index for s in circuit.signals}
        self._programs = {
            g: compile_expr(expr, index_of)
            for g, expr in model.replacements(circuit, fault).items()
        }
        self.circuit = circuit
        self.fault = fault
        self.name = faulty_name(circuit, fault)
        self.lane = lane
        self.reads = read_masks(
            circuit, {g: program_vars(p) for g, p in self._programs.items()}
        )
        self.settled: Dict[Tuple[int, int], _Outcome] = {}
        self._excited = None
        self._stubborn: Optional[_Stubborn] = None
        reset = circuit.reset_state
        self.reset_state = (
            None if reset is None else model.forced_reset(circuit, fault, reset)
        )

    @property
    def excited_signals(self):
        if self._excited is None:
            self._excited = patched_excited(self.circuit, self._programs, self.name)
        return self._excited

    @property
    def stubborn(self) -> _Stubborn:
        if self._stubborn is None:
            self._stubborn = _Stubborn(self.circuit, self.reads)
        return self._stubborn

    def apply_input_pattern(self, state: int, pattern: int) -> int:
        """Drive the inputs to ``pattern``: an R_I step, as on the good
        circuit (a fault never moves an input wire)."""
        return self.circuit.apply_input_pattern(state, pattern)


#: What the exact simulator settles: a patched machine, or any netlist
#: (a materialized faulty one in tests).
Machine = Union[PatchedMachine, Circuit]


def _started(outcome: str) -> None:
    """Count one start settled by ``outcome`` (metrics armed only)."""
    if _obs.enabled():
        _obs.get_registry().counter(
            "repro_exact_starts_total",
            "Exact faulty-machine starts, by how each was settled.",
            ("outcome",),
        ).labels(outcome).inc()


def _fallback(reason: str) -> None:
    """Count one fall back to ternary semantics (metrics armed only)."""
    if _obs.enabled():
        _obs.get_registry().counter(
            "repro_exact_fallbacks_total",
            "Exact faulty-machine simulations handed back to ternary.",
            ("reason",),
        ).labels(reason).inc()


def certify(
    engine: SimEngine,
    j: int,
    reads: Sequence[int],
    start: int,
    seed: Optional[int] = None,
) -> Optional[int]:
    """The one stable state every interleaving from ``start`` ends in,
    proved on machine ``j`` of ``engine``, or None when the proof fails.

    Algorithm A runs from ``start``; the gates it leaves at Φ must read
    one another without a cycle
    (:func:`~repro.sgraph.explore.transition_bound` is not None), and
    Algorithm B must then resolve every one of them
    (:meth:`~repro.sim.engine.SimEngine.settle_lanes_if` on lane ``j``
    alone).  ``reads``
    (see :func:`~repro.sgraph.explore.read_masks`) must describe
    machine ``j``'s own gates: the patched supports for lane ``j`` of
    the fault list's engine, the good ones for the fault-free engine's
    lane 0.  ``seed`` is None for an arbitrary start (A examines every
    gate); for a stable state of the machine whose inputs were just
    driven, it is the inputs that moved, and A examines only the gates
    reading them first."""
    return engine.settle_lanes_if(
        {j: start}, seed, lambda _j, phi: transition_bound(phi, reads) is not None
    )[j]


def _settle(
    faulty: Machine, start: int, cap: int, seed: Optional[int]
) -> _Outcome:
    """One start settled: certified on the machine's lane when
    :func:`certify` can, else explored."""
    lane = faulty.lane if isinstance(faulty, PatchedMachine) else None
    if lane is not None:
        state = certify(lane[0], lane[1], faulty.reads, start, seed)
        if state is not None:
            _started("certified")
            return frozenset((state,)), None
    _started("explored")
    report = settle_report(faulty, start, cap)
    if report.truncated:
        return None, "truncation"
    if report.oscillating:
        return None, "oscillation"
    return report.stable_states, None


def _settled(
    faulty: Machine, start: int, cap: int, seed: Optional[int]
) -> Optional[FaultyStates]:
    """Stable states reachable from ``start``, certified or explored
    (:func:`_settle`), once per ``(start, cap)`` on a patched machine;
    None (counted) when the machine may oscillate or the exploration
    hits ``cap``.  ``seed`` is the certificate's (see :func:`certify`):
    None from reset, the moved inputs after a test cycle's drive.  It
    changes how much A examines, never the outcome, so the memo does
    not key on it."""
    memo = faulty.settled if isinstance(faulty, PatchedMachine) else None
    outcome = None if memo is None else memo.get((start, cap))
    if outcome is None:
        outcome = _settle(faulty, start, cap, seed)
        if memo is not None:
            memo[start, cap] = outcome
    else:
        _started("memo")
    states, reason = outcome
    if reason is not None:
        _fallback(reason)
    return states


def faulty_reset_states(
    faulty: Machine,
    reset_state: int,
    cap: int = 50_000,
    max_set: int = 64,
) -> Optional[FaultyStates]:
    """Possible stable states of the faulty machine after reset forcing.

    ``reset_state`` already carries the model's pre-set (see
    :attr:`PatchedMachine.reset_state`).  Returns None when the machine
    may oscillate or the analysis blows the caps.
    """
    states = _settled(faulty, reset_state, cap, None)
    if states is not None and len(states) > max_set:
        _fallback("max_set")
        return None
    return states


def faulty_apply(
    faulty: Machine,
    states: FaultyStates,
    pattern: int,
    cap: int = 50_000,
    max_set: int = 64,
) -> Optional[FaultyStates]:
    """Drive the inputs to ``pattern`` on every possible faulty state.
    Each member is a stable state of the machine, so its certificate is
    seeded with the inputs that moved."""
    out = set()
    for state in states:
        start = faulty.apply_input_pattern(state, pattern)
        settled = _settled(faulty, start, cap, start ^ state)
        if settled is None:
            return None
        out |= settled
        if len(out) > max_set:
            _fallback("max_set")
            return None
    return frozenset(out)


def faulty_detects(circuit: Circuit, good_state: int, states: FaultyStates) -> bool:
    """True when every possible faulty stable state mismatches the good
    outputs — detection guaranteed for any delay assignment."""
    if not states:
        return False
    for state in states:
        if all(
            ((state >> out) & 1) == ((good_state >> out) & 1)
            for out in circuit.outputs
        ):
            return False
    return True
