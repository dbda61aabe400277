"""The mutable state one flow run threads through its stages.

A :class:`RunContext` owns everything a stage may read or write: the
circuit, the CSSG, the full fault universe and the (possibly collapsed)
work list, the mutable fault ledger, the growing test set, the seeded
RNG, the run :class:`~repro.flow.budget.Budget`, and the run's event
listeners.  Stages communicate *only* through the context — that is
what makes them recomposable.

**Events are records.**  Stages narrate the run by handing plain dicts
to :func:`emit`, ``{"event": <kind>, "stage": <name>, <fields>}`` — the
very record a traced run files on its spans.  Kinds and fields, in
order: ``StageStarted`` (``n_remaining``), ``StageFinished``
(``detail``), ``FaultClassified`` (``fault`` as :meth:`Fault.to_json`,
``status``, ``phase``, ``reason``), ``TestAdded`` (``index``,
``source``, ``n_patterns``, ``n_faults``), ``ProgressTick`` (``done``,
``total``, ``covered``) and ``BudgetExhausted`` (``reason``,
``n_remaining``).  No record carries wall-clock data, so the stream is
deterministic for a fixed (circuit, options, seed).  A record is built
only when the run has a listener.

:meth:`RunContext.finish` freezes the ledger into an
:class:`~repro.core.atpg.AtpgResult`: collapsed equivalence classes are
expanded (members inherit their representative's verdict and test),
any fault no stage classified is marked ``aborted``/``"unprocessed"``
(so a partial or custom flow still yields a complete, valid result),
and the per-phase counters are tallied from the ledger.
"""

from __future__ import annotations

import random
import warnings
from typing import Callable, Dict, Iterable, List, Optional

from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.core.atpg import AtpgOptions, AtpgResult, FaultStatus
from repro.core.sequences import Test, TestSet
from repro.core.three_phase import (
    ABORTED,
    DETECTED,
    UNDETECTABLE,
    GenerationOutcome,
    ThreePhaseGenerator,
)
from repro.flow.budget import Budget
from repro.sgraph.cssg import Cssg

__all__ = ["RunContext", "REASON_UNPROCESSED", "emit"]

#: Reason for faults left unclassified by a custom (partial) stage list.
REASON_UNPROCESSED = "unprocessed"

Listener = Callable[[Dict], None]


def emit(listeners: List[Listener], doc: Dict) -> None:
    """Hand the event record ``doc`` to every listener, in order.

    Listeners are isolated: one that raises is removed from
    ``listeners`` after its first error, which surfaces once as a
    :class:`RuntimeWarning`; the run completes and every other listener
    keeps receiving the whole stream.  Listeners share ``doc`` and must
    not mutate it."""
    for listener in list(listeners):
        try:
            listener(doc)
        except Exception as exc:
            listeners.remove(listener)
            warnings.warn(
                f"event listener {listener!r} raised {type(exc).__name__}: "
                f"{exc} on {doc['event']}; dropped",
                RuntimeWarning,
                stacklevel=2,
            )


class RunContext:
    """Shared state of one flow run; see the module docstring."""

    def __init__(
        self,
        circuit: Circuit,
        options: AtpgOptions,
        cssg: Cssg,
        faults: List[Fault],
        listeners: Iterable[Listener] = (),
        budget: Optional[Budget] = None,
    ):
        self.circuit = circuit
        self.options = options
        self.cssg = cssg
        #: The full fault universe the result reports over.
        self.faults = list(faults)
        #: Faults the stages actually process (collapse may shrink it).
        #: A copy, so a stage mutating it in place cannot corrupt the
        #: reported universe.
        self.work_list: List[Fault] = list(self.faults)
        #: Maps every fault to its equivalence-class representative.
        self.representative_of: Dict[Fault, Fault] = {f: f for f in self.faults}
        #: The fault ledger: final verdicts, filled in as stages run.
        self.statuses: Dict[Fault, FaultStatus] = {}
        self.tests = TestSet(circuit)
        #: Seeded once per run; stages share the stream in stage order.
        self.rng = random.Random(options.seed)
        #: Event listeners; :func:`emit` drops one that raises.
        self.listeners: List[Listener] = list(listeners)
        self.budget = budget if budget is not None else Budget.from_options(options)
        #: Name of the stage currently running (set by ``Flow.run``).
        self.stage = ""
        #: Free-form per-stage statistics (e.g. compaction counts).
        self.stage_stats: Dict[str, Dict] = {}
        self._generator: Optional[ThreePhaseGenerator] = None
        self._outcomes: Dict[Fault, GenerationOutcome] = {}

    # -- three-phase generation (once per fault per run) -----------------

    def generate(self, fault: Fault) -> GenerationOutcome:
        """The fault's three-phase outcome, generated on first request."""
        outcome = self._outcomes.get(fault)
        if outcome is None:
            if self._generator is None:
                # Its lanes are the faults still unclassified now: inside
                # the random-TPG stage, the very list the walks run on,
                # so the faulty machines reuse that stage's cached engine
                # (replayed faults are already classified there too).
                self._generator = ThreePhaseGenerator(
                    self.cssg,
                    self.options.max_product_states,
                    faulty_semantics=self.options.faulty_semantics,
                    faults=self.remaining(),
                )
            outcome = self._generator.generate(
                fault, self.options.max_activation_tries
            )
            self._outcomes[fault] = outcome
        return outcome

    def generated(self, fault: Fault) -> Optional[GenerationOutcome]:
        """The fault's outcome if this run already generated it."""
        return self._outcomes.get(fault)

    # -- ledger operations (each emits its event) ------------------------

    def classify(
        self,
        fault: Fault,
        status: str,
        phase: str = "",
        test_index: Optional[int] = None,
        reason: str = "",
    ) -> FaultStatus:
        """Record a fault's final verdict and emit ``FaultClassified``."""
        record = FaultStatus(fault, status, phase, test_index, reason)
        self.statuses[fault] = record
        if self.listeners:
            emit(self.listeners, {
                "event": "FaultClassified", "stage": self.stage,
                "fault": fault.to_json(), "status": status, "phase": phase,
                "reason": reason,
            })
        return record

    def add_test(self, test: Test) -> int:
        """Append a test, emit ``TestAdded``, return its index."""
        index = len(self.tests.tests)
        self.tests.add(test)
        if self.listeners:
            emit(self.listeners, {
                "event": "TestAdded", "stage": self.stage, "index": index,
                "source": test.source, "n_patterns": len(test.patterns),
                "n_faults": len(test.faults),
            })
        return index

    def remaining(self) -> List[Fault]:
        """Work-list faults with no verdict yet, in work-list order."""
        return [f for f in self.work_list if f not in self.statuses]

    @property
    def n_covered(self) -> int:
        return sum(1 for s in self.statuses.values() if s.status == DETECTED)

    # -- result assembly -------------------------------------------------

    def finish(self, cpu_seconds: float) -> AtpgResult:
        """Freeze the ledger into a complete :class:`AtpgResult`."""
        # Expand collapsed equivalence classes: members inherit their
        # representative's verdict and test (identical faulty circuits).
        for fault in self.faults:
            if fault in self.statuses:
                continue
            rep = self.representative_of[fault]
            rep_status = self.statuses.get(rep)
            if rep_status is None:
                continue  # representative itself unclassified; see below
            self.statuses[fault] = FaultStatus(
                fault,
                rep_status.status,
                rep_status.phase,
                rep_status.test_index,
                rep_status.reason,
            )
            if rep_status.status == DETECTED and rep_status.test_index is not None:
                self.tests.tests[rep_status.test_index].faults.append(fault)
        # A custom flow may omit the classifying stages entirely; the
        # result must still cover the whole universe.
        for fault in self.faults:
            if fault not in self.statuses:
                self.statuses[fault] = FaultStatus(
                    fault, ABORTED, reason=REASON_UNPROCESSED
                )
        statuses = self.statuses
        return AtpgResult(
            circuit=self.circuit,
            options=self.options,
            cssg=self.cssg,
            faults=self.faults,
            statuses=statuses,
            tests=self.tests,
            cpu_seconds=cpu_seconds,
            n_random=sum(1 for s in statuses.values() if s.phase == "rnd"),
            n_three_phase=sum(1 for s in statuses.values() if s.phase == "3-ph"),
            n_fault_sim=sum(1 for s in statuses.values() if s.phase == "sim"),
            n_undetectable=sum(
                1 for s in statuses.values() if s.status == UNDETECTABLE
            ),
            n_aborted=sum(1 for s in statuses.values() if s.status == ABORTED),
        )
