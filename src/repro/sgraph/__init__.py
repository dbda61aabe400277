"""State-graph machinery: TCSG exploration and the CSSG abstraction.

* :mod:`repro.sgraph.explore` — exhaustive unbounded-delay settling
  analysis from a single state (non-confluence, oscillation, test-cycle
  length; paper §2, §4.1), and its stubborn-set-reduced, height-free
  variant for the exact faulty machine.
* :mod:`repro.sgraph.cssg` — reachable-stable-state traversal and the
  k-Confluent Stable State Graph (paper §4.2).
* :mod:`repro.sgraph.symbolic` — partitioned BDD image computation of
  the TCSG/CSSG (paper §3.1's "symbolic traversal algorithms similar to
  [10, 7]") — a first-class construction method (``method="symbolic"``)
  and the production path for large state spaces.

:func:`build_cssg` dispatches on ``method``, one of :data:`CSSG_METHODS`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.sgraph.explore": ("SettleReport", "reduced_settle_report", "settle_report"),
    "repro.sgraph.cssg": ("CSSG_METHODS", "Cssg", "build_cssg"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
