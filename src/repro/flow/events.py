"""Typed flow events and the bus that carries them.

Every stage of a :class:`~repro.flow.flow.Flow` run narrates itself by
emitting events on the run's :class:`EventBus`:

* :class:`StageStarted` / :class:`StageFinished` — one pair per enabled
  stage, bracketing its work;
* :class:`FaultClassified` — a fault received its final verdict
  (detected / undetectable / aborted), with the phase and abort reason;
* :class:`TestAdded` — a test sequence entered the test set;
* :class:`ProgressTick` — periodic done/total progress inside a stage
  (per random walk, per 3-phase fault);
* :class:`BudgetExhausted` — the run budget ran out mid-stage; the
  remainder is classified ``aborted`` with reason ``"budget"``.

Events are frozen dataclasses with a stable :meth:`to_json_dict` form,
so the same stream feeds the ``repro-atpg --progress`` live line and
the span events of a traced run (``--spans FILE``: each event rides
the span open when it was emitted).  The stream is **deterministic** for a fixed
(circuit, options, seed) — only the wall-clock fields
(:attr:`StageFinished.seconds`) vary between runs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, List

from repro.circuit.faults import Fault

__all__ = [
    "FlowEvent",
    "StageStarted",
    "StageFinished",
    "FaultClassified",
    "TestAdded",
    "ProgressTick",
    "BudgetExhausted",
    "EventBus",
]


@dataclass(frozen=True)
class FlowEvent:
    """Base class: every event names the stage that emitted it."""

    stage: str

    def to_json_dict(self) -> Dict:
        """``{"event": <class name>, <field>: <json value>, ...}``."""
        doc: Dict = {"event": type(self).__name__}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Fault):
                value = value.to_json()
            doc[f.name] = value
        return doc


@dataclass(frozen=True)
class StageStarted(FlowEvent):
    """A stage began; ``n_remaining`` faults still lack a verdict."""

    n_remaining: int


@dataclass(frozen=True)
class StageFinished(FlowEvent):
    """A stage completed.  ``seconds`` is wall-clock (the one
    non-deterministic event field); ``detail`` is a short free-form
    stage summary (e.g. compaction stats)."""

    seconds: float
    detail: str = ""


@dataclass(frozen=True)
class FaultClassified(FlowEvent):
    """A fault received its final verdict."""

    fault: Fault
    status: str  #: "detected" / "undetectable" / "aborted"
    phase: str  #: "rnd" / "3-ph" / "sim" when detected
    reason: str  #: abort reason ("budget" / "product-states" / ...)


@dataclass(frozen=True)
class TestAdded(FlowEvent):
    """A test sequence was appended to the run's test set."""

    __test__ = False  # not a pytest class, despite the name

    index: int
    source: str  #: "random" / "3-phase"
    n_patterns: int
    n_faults: int


@dataclass(frozen=True)
class ProgressTick(FlowEvent):
    """Periodic progress inside a stage: ``done`` of ``total`` work
    units, ``covered`` faults detected so far across the whole run."""

    done: int
    total: int
    covered: int


@dataclass(frozen=True)
class BudgetExhausted(FlowEvent):
    """The run budget expired mid-stage; ``n_remaining`` faults will be
    classified ``aborted`` with reason ``"budget"``."""

    reason: str  #: what ran out ("deadline")
    n_remaining: int


Listener = Callable[[FlowEvent], None]


class EventBus:
    """Synchronous fan-out of flow events to subscribed listeners.

    Listeners are plain callables invoked in subscription order, on the
    thread that runs the flow.  Listeners are *isolated*: one that
    raises is unsubscribed after its first error and the exception is
    surfaced once as a :class:`RuntimeWarning` — the run completes and
    every other listener keeps receiving the full stream.  (Consumers
    doing fallible I/O still get exactly one warning naming them, so a
    broken trace file is visible without killing hours of ATPG.)

    Mid-run attach/detach is supported: :meth:`subscribe` and
    :meth:`unsubscribe` may be called while the flow is emitting — from
    inside a listener or from another thread.  Each :meth:`emit` fans
    out to a snapshot of the subscription list, so a subscription added
    mid-emit takes effect from the *next* event and a detach never
    perturbs the other listeners' delivery.  :meth:`unsubscribe` is idempotent — a
    listener that already unsubscribed itself (or was dropped after
    raising) is a no-op to remove again.
    """

    def __init__(self) -> None:
        self._listeners: List[Listener] = []
        self.n_emitted = 0
        self.n_listener_errors = 0

    def subscribe(self, listener: Listener) -> Listener:
        self._listeners.append(listener)
        return listener

    def unsubscribe(self, listener: Listener) -> bool:
        """Detach ``listener``; ``False`` if it was not subscribed."""
        try:
            self._listeners.remove(listener)
            return True
        except ValueError:
            return False

    def emit(self, event: FlowEvent) -> None:
        self.n_emitted += 1
        broken = None
        # Snapshot: listeners may (un)subscribe — themselves or others —
        # while this event fans out, without skipping anyone else.
        for listener in tuple(self._listeners):
            if listener not in self._listeners:
                continue  # detached earlier in this same emit
            try:
                listener(event)
            except Exception as exc:
                if broken is None:
                    broken = []
                broken.append((listener, exc))
        if broken is not None:
            import warnings

            for listener, exc in broken:
                self.n_listener_errors += 1
                self.unsubscribe(listener)
                warnings.warn(
                    f"event listener {listener!r} raised "
                    f"{type(exc).__name__}: {exc} on "
                    f"{type(event).__name__}; unsubscribed",
                    RuntimeWarning,
                    stacklevel=2,
                )
