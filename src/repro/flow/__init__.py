"""The staged ATPG pipeline API.

The paper's flow (§2, §5) as a composable pipeline instead of a
monolith:

* :mod:`repro.flow.flow` — :class:`Flow`: an ordered stage list;
  ``Flow.default()`` is collapse → random TPG → 3-phase (+ interleaved
  fault-sim credit) → compaction;
* :mod:`repro.flow.stages` — the :class:`Stage` protocol and the
  built-in stages; write your own by implementing ``name`` /
  ``enabled(ctx)`` / ``run(ctx)``;
* :mod:`repro.flow.context` — :class:`RunContext`: the circuit, CSSG,
  fault ledger, test set, seeded RNG and budget every stage shares;
* :mod:`repro.flow.budget` — :class:`Budget`: the wall-clock deadline,
  honored cooperatively (a bounded run yields a valid partial result,
  remainder ``aborted``/``"budget"``);
* :mod:`repro.flow.events` — the typed event stream
  (``StageStarted`` … ``BudgetExhausted``) and :class:`EventBus`;
* :mod:`repro.flow.consumers` — the ready-made listener
  :class:`ProgressLine`.  A run under a recording
  :class:`~repro.obs.trace.Tracer` also files every event on its span
  timeline (see :mod:`repro.flow.flow`).
"""

from repro.flow.budget import Budget, REASON_BUDGET
from repro.flow.consumers import ProgressLine
from repro.flow.context import REASON_UNPROCESSED, RunContext
from repro.flow.events import (
    BudgetExhausted,
    EventBus,
    FaultClassified,
    FlowEvent,
    ProgressTick,
    StageFinished,
    StageStarted,
    TestAdded,
)
from repro.flow.flow import DEFAULT_STAGE_NAMES, Flow
from repro.flow.stages import (
    CollapseStage,
    CompactionStage,
    RandomTpgStage,
    Stage,
    ThreePhaseStage,
    fault_simulate,
)

__all__ = [
    "Budget",
    "REASON_BUDGET",
    "REASON_UNPROCESSED",
    "ProgressLine",
    "RunContext",
    "BudgetExhausted",
    "EventBus",
    "FaultClassified",
    "FlowEvent",
    "ProgressTick",
    "StageFinished",
    "StageStarted",
    "TestAdded",
    "DEFAULT_STAGE_NAMES",
    "Flow",
    "CollapseStage",
    "CompactionStage",
    "RandomTpgStage",
    "Stage",
    "ThreePhaseStage",
    "fault_simulate",
]
