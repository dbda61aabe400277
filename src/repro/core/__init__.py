"""The paper's ATPG building blocks (§5).

The pipeline itself lives in :mod:`repro.flow` (``Flow.default()``:
collapse → random TPG → 3-phase → compaction, over one
``RunContext``).  This package holds the algorithms the stages call —

1. CSSG construction lives in :mod:`repro.sgraph` (§4);
2. **random TPG** with parallel-ternary fault simulation (§5.4) —
   :mod:`repro.core.random_tpg`;
3. **3-phase deterministic ATPG** — activation, justification,
   differentiation (§5.1–5.3) — :mod:`repro.core.three_phase`;
4. **fault simulation** of generated sequences (§5.4) —
   :func:`repro.flow.stages.fault_simulate` over :mod:`repro.sim`;

— plus the shared data contract (:mod:`repro.core.atpg`:
``AtpgOptions`` / ``AtpgResult``),
collapsing, compaction, verification, and reporting.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.core.sequences": ("Test", "TestSet"),
    "repro.core.atpg": ("AtpgOptions", "AtpgResult", "FaultStatus"),
    "repro.core.three_phase": ("ThreePhaseGenerator", "GenerationOutcome"),
    "repro.core.report": ("format_table", "result_row"),
    "repro.core.verify": ("VerificationReport", "audit_result", "verify_test_set"),
    "repro.core.compact": ("compact_test_set",),
    "repro.core.collapse": ("collapse_faults",),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
