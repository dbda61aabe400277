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
  fault ledger, test set, seeded RNG, budget and event listeners every
  stage shares; and :func:`emit`, which hands each event record
  (``{"event": "StageStarted", "stage": ..., ...}`` … ``BudgetExhausted``)
  to the run's listeners;
* :mod:`repro.flow.budget` — :class:`Budget`: the wall-clock deadline,
  honored cooperatively (a bounded run yields a valid partial result,
  remainder ``aborted``/``"budget"``);
* :mod:`repro.flow.consumers` — the ready-made listener
  :class:`ProgressLine`.  A run under a recording
  :class:`~repro.obs.trace.Tracer` also files every record on its span
  timeline (see :mod:`repro.flow.flow`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.flow.budget": ("Budget", "REASON_BUDGET"),
    "repro.flow.consumers": ("ProgressLine",),
    "repro.flow.context": ("REASON_UNPROCESSED", "RunContext", "emit"),
    "repro.flow.flow": ("DEFAULT_STAGE_NAMES", "Flow"),
    "repro.flow.stages": (
        "CollapseStage", "CompactionStage", "RandomTpgStage", "Stage",
        "ThreePhaseStage", "fault_simulate",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
