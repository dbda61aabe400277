"""Run budgets: the wall-clock deadline of one flow run.

A :class:`Budget` travels with the :class:`~repro.flow.context.RunContext`
and is honored *cooperatively*: stages poll :meth:`Budget.expired` at
their natural work boundaries (between random walks, between 3-phase
faults) and wind down cleanly when the deadline passes, so a bounded run
always yields a valid partial :class:`~repro.core.atpg.AtpgResult` with
the untried remainder classified ``aborted`` / reason ``"budget"``.

The deadline bounds the whole run.  The per-fault effort caps are not
part of the budget: the deterministic generator reads them from
:class:`~repro.core.atpg.AtpgOptions` (``max_product_states``,
``max_activation_tries``), their one source.  ``clock`` is injectable
so tests can drive expiry deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["Budget", "REASON_BUDGET"]

#: The :attr:`repro.core.atpg.FaultStatus.reason` of a fault the run's
#: wall-clock deadline left unfinished.
REASON_BUDGET = "budget"


@dataclass
class Budget:
    """Cooperative limits for one flow run.

    ``deadline_seconds=None`` means unbounded wall-clock.  The clock
    starts at :meth:`start` (called by ``Flow.run`` before any work,
    CSSG construction included).
    """

    deadline_seconds: Optional[float] = None
    clock: Callable[[], float] = field(
        default=time.perf_counter, repr=False, compare=False
    )
    _t0: Optional[float] = field(default=None, repr=False, compare=False)

    @staticmethod
    def from_options(options) -> "Budget":
        """The budget an :class:`~repro.core.atpg.AtpgOptions` implies."""
        return Budget(deadline_seconds=options.deadline_seconds)

    def start(self) -> "Budget":
        self._t0 = self.clock()
        return self

    def elapsed(self) -> float:
        if self._t0 is None:
            return 0.0
        return self.clock() - self._t0

    def remaining(self) -> Optional[float]:
        """Seconds left, or ``None`` when there is no deadline."""
        if self.deadline_seconds is None:
            return None
        return max(0.0, self.deadline_seconds - self.elapsed())

    def expired(self) -> bool:
        return (
            self.deadline_seconds is not None
            and self.elapsed() >= self.deadline_seconds
        )
