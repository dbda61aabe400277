"""Extensions beyond the paper's core flow (its §6/§7 future work).

* :mod:`repro.ext.scan` — partial scan-point insertion ("testability can
  be assisted by partial scan-path [16]").
* :mod:`repro.ext.undetectable` — a-priori classification of untestable
  faults ("classifying undetectable faults to avoid wasting time").
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.ext.scan": ("insert_scan_inputs", "rank_scan_candidates"),
    "repro.ext.undetectable": ("classify_undetectable",),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
