"""Event-stream consumers: progress line and heartbeats.

Two ready-made listeners for the flow's :class:`EventBus`, both fed by
the same typed stream:

* :class:`ProgressLine` — a live single-line status on a TTY-ish stream
  (``repro-atpg --progress``);
* :class:`Heartbeat` — a throttled liveness callback; the campaign
  runner's workers use it to tell the parent "slow but alive", so a
  silent worker can be distinguished from a busy one.

The structured record of the stream is not a listener here: a run
under a recording :class:`~repro.obs.trace.Tracer` files every event
on the span open when it was emitted (``repro-atpg --spans FILE``).
"""

from __future__ import annotations

import sys
import time
from typing import Callable, IO, Optional

from repro.flow.events import (
    BudgetExhausted,
    FaultClassified,
    FlowEvent,
    ProgressTick,
    StageFinished,
    StageStarted,
    TestAdded,
)

__all__ = ["ProgressLine", "Heartbeat"]


class ProgressLine:
    """A live status line: stage, progress, running totals.

    On a TTY the line is rewritten in place (``\\r``) on every event.
    When the stream is *not* a terminal (piped output, CI logs) the
    carriage-return dance would pollute the log with one mangled
    mega-line, so the consumer switches to periodic plain lines
    instead: one line per stage boundary plus at most one line per
    ``plain_interval`` seconds in between, each newline-terminated.
    Call :meth:`close` (or use as a context manager) to terminate the
    output with a final status line / newline."""

    def __init__(self, stream: Optional[IO] = None, plain_interval: float = 2.0):
        self.stream = stream if stream is not None else sys.stderr
        self.plain_interval = plain_interval
        self.stage = ""
        self.done = 0
        self.total = 0
        self.covered = 0
        self.tests = 0
        self.aborted = 0
        self._dirty = False
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._last_plain = float("-inf")

    def __call__(self, event: FlowEvent) -> None:
        boundary = False
        if isinstance(event, StageStarted):
            self.stage = event.stage
            self.done = self.total = 0
            boundary = True
        elif isinstance(event, ProgressTick):
            self.stage = event.stage
            self.done, self.total = event.done, event.total
        elif isinstance(event, FaultClassified):
            if event.status == "detected":
                self.covered += 1
            elif event.status == "aborted":
                self.aborted += 1
        elif isinstance(event, TestAdded):
            self.tests = event.index + 1
        elif isinstance(event, BudgetExhausted):
            self.stage = f"{event.stage} (budget!)"
            boundary = True
        elif isinstance(event, StageFinished):
            self.done = self.total
            boundary = True
        self._render(boundary)

    def _line(self) -> str:
        progress = f" {self.done}/{self.total}" if self.total else ""
        return (
            f"[{self.stage or 'setup'}]{progress} "
            f"covered={self.covered} tests={self.tests} aborted={self.aborted}"
        )

    def _render(self, boundary: bool = False) -> None:
        if self._tty:
            self.stream.write(("\r" + self._line()).ljust(66))
            self.stream.flush()
            self._dirty = True
            return
        now = time.monotonic()
        if not boundary and now - self._last_plain < self.plain_interval:
            return
        self._last_plain = now
        self.stream.write(self._line() + "\n")
        self.stream.flush()

    def close(self) -> None:
        if self._tty:
            if self._dirty:
                self.stream.write("\n")
                self.stream.flush()
                self._dirty = False
        else:
            # Final state line, so a piped consumer always sees the
            # closing totals even if the last periodic line was stale.
            self.stream.write(self._line() + "\n")
            self.stream.flush()

    def __enter__(self) -> "ProgressLine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Heartbeat:
    """Throttled liveness relay: forwards at most one beat per
    ``min_interval`` seconds to ``send``, no matter how dense the event
    stream is.  The campaign worker wires ``send`` to its event queue so
    the parent can tell a slow-but-alive job from a hung one."""

    def __init__(self, send: Callable[[], None], min_interval: float = 0.5):
        self.send = send
        self.min_interval = min_interval
        # -inf, not 0.0: time.monotonic() counts from an arbitrary epoch
        # (often boot), so on a freshly booted host ``now - 0.0`` can be
        # smaller than min_interval and even the first beat would be
        # swallowed.  The first event must always get through.
        self._last = float("-inf")

    def __call__(self, event: FlowEvent) -> None:
        now = time.monotonic()
        if now - self._last >= self.min_interval:
            self._last = now
            self.send()
