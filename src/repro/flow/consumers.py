"""Event-stream consumer: the progress line.

:class:`ProgressLine` is the ready-made run listener: a live
single-line status on a TTY-ish stream (``repro-atpg --progress``),
driven by the flow's event records (see :mod:`repro.flow.context`).

The structured record of the stream is not a listener here: a run
under a recording :class:`~repro.obs.trace.Tracer` files every event
on the span open when it was emitted (``repro-atpg --spans FILE``).
"""

from __future__ import annotations

import sys
import time
from typing import IO, Dict, Optional

__all__ = ["ProgressLine"]


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

    def __call__(self, doc: Dict) -> None:
        kind = doc["event"]
        boundary = False
        if kind == "StageStarted":
            self.stage = doc["stage"]
            self.done = self.total = 0
            boundary = True
        elif kind == "ProgressTick":
            self.stage = doc["stage"]
            self.done, self.total = doc["done"], doc["total"]
        elif kind == "FaultClassified":
            if doc["status"] == "detected":
                self.covered += 1
            elif doc["status"] == "aborted":
                self.aborted += 1
        elif kind == "TestAdded":
            self.tests = doc["index"] + 1
        elif kind == "BudgetExhausted":
            self.stage = f"{doc['stage']} (budget!)"
            boundary = True
        elif kind == "StageFinished":
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

