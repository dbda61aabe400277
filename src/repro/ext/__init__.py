"""Extensions beyond the paper's core flow (its §6/§7 future work).

* :mod:`repro.ext.scan` — partial scan-point insertion ("testability can
  be assisted by partial scan-path [16]").
* :mod:`repro.ext.undetectable` — a-priori classification of untestable
  faults ("classifying undetectable faults to avoid wasting time").
"""

from repro.ext.scan import insert_scan_inputs, rank_scan_candidates
from repro.ext.undetectable import classify_undetectable

__all__ = [
    "insert_scan_inputs",
    "rank_scan_candidates",
    "classify_undetectable",
]
