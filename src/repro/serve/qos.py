"""Per-request QoS: the flow's budgets turned into service limits.

A single-user run bounds itself with a :class:`~repro.flow.budget.Budget`
(wall-clock deadline) and the per-fault effort caps in its options.  A
multi-tenant server needs the same levers *per request*, plus admission
control so one client cannot starve the rest:

* **deadline ceiling** — every submitted job runs under
  ``min(requested, max_deadline_seconds)`` (see
  :func:`repro.flow.budget.clamp_deadline`); a request with no deadline
  gets ``default_deadline_seconds``.  The clamped value lands in the
  job's options *before* content hashing, so a clamped submission is
  cached under exactly the budget it actually ran with.
* **bounded queue** — at most ``max_queue`` jobs may be active
  (queued + running); excess submissions are rejected with 429 and a
  ``Retry-After`` hint rather than queued into unbounded memory.
* **per-client concurrency** — at most ``per_client`` active jobs per
  client id (the ``client`` submission field / ``X-Repro-Client``
  header); the 430th identical free-rider gets 429, everyone else's
  latency is protected.

Cache answers and coalesced followers bypass admission — they cost no
compute, which is the entire point of the shared warm cache.

>>> policy = QosPolicy(max_queue=2, per_client=1, max_deadline_seconds=60)
>>> policy.effective_deadline(None)
60
>>> policy.effective_deadline(10.0)
10.0
>>> policy.effective_deadline(3600.0)
60
>>> policy.admit(n_active=2, n_client_active=0) is None
False
>>> policy.admit(n_active=1, n_client_active=1) is None
False
>>> policy.admit(n_active=1, n_client_active=0) is None
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.flow.budget import clamp_deadline

__all__ = ["QosPolicy"]


@dataclass(frozen=True)
class QosPolicy:
    """Admission and budget limits for one server."""

    #: Active (queued + running) jobs the server will hold; above it,
    #: submissions get 429.  ``0`` disables submission entirely.
    max_queue: int = 64
    #: Active jobs any single client id may have in flight.
    per_client: int = 16
    #: Ceiling on a job's ``deadline_seconds`` (None = no ceiling).
    max_deadline_seconds: Optional[float] = None
    #: Deadline applied when the request asks for none (None = inherit
    #: the ceiling; jobs then always run bounded when a ceiling exists).
    default_deadline_seconds: Optional[float] = None
    #: Largest accepted request body (inline netlists included).
    max_body_bytes: int = 8 * 1024 * 1024
    #: ``Retry-After`` seconds suggested on 429 responses.
    retry_after_seconds: int = 2

    def effective_deadline(self, requested: Optional[float]) -> Optional[float]:
        """The deadline a submission actually runs under."""
        if requested is None:
            requested = self.default_deadline_seconds
        return clamp_deadline(requested, self.max_deadline_seconds)

    def admit(self, n_active: int, n_client_active: int) -> Optional[str]:
        """``None`` to accept, else the 429 rejection reason."""
        if n_active >= self.max_queue:
            return (
                f"queue full ({n_active} active jobs, limit {self.max_queue})"
            )
        if n_client_active >= self.per_client:
            return (
                f"client concurrency limit reached "
                f"({n_client_active} active, limit {self.per_client})"
            )
        return None
