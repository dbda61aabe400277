"""Span tracing: where did the wall-clock time go?

A :class:`Tracer` records context-manager *spans* — named, nested,
monotonic-clock intervals with free-form attributes::

    tracer = Tracer()
    with tracer.span("flow.run", circuit="ebergen"):
        with tracer.span("stage.collapse"):
            ...

Spans carry the only wall-clock data the observability layer produces:
event payloads, metrics (counters only) and serialized results stay
byte-deterministic, and anything timing-shaped lives here.

**Span events.**  :meth:`Tracer.event` files a point-in-time record
on the innermost open span.  A flow run under a recording tracer
subscribes ``tracer.event`` itself as a listener, so every flow event
record lands on a span and a span's ``events`` list narrates the
verdicts reached while it was open, next to its timing.

The finished-span records (:attr:`Tracer.spans`) serialize to JSON
lines (:meth:`Tracer.write_jsonl`) and fold into a per-run
**self-profile** (:meth:`Tracer.profile` /
:func:`format_profile`): per-span-name call counts, total/self time,
and share of the traced run — the ``repro-atpg --self-profile`` table.

**Ambient tracer.**  Instrumented modules fetch the process-global
tracer with :func:`get_tracer`; by default that is :data:`NULL_TRACER`,
whose ``span()`` returns one shared no-op context manager — a plain
run pays an attribute load and a method call at each (rare) span site,
nothing more.  ``use_tracer`` scopes a real tracer over a block::

    with use_tracer(Tracer()) as tracer:
        result = Flow.default().run(circuit, options)
    print(format_profile(tracer.profile()))
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "active",
    "format_profile",
]


class Span:
    """One open span; becomes a finished record when its ``with`` block
    exits.  ``set`` attaches attributes mid-flight (counts discovered
    during the work, e.g. image-iteration totals); ``events`` collects
    what :meth:`Tracer.event` files while this is the innermost span."""

    __slots__ = ("name", "attrs", "events", "_tracer", "_id", "_parent", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict):
        self.name = name
        self.attrs = attrs
        self.events: List[Dict] = []
        self._tracer = tracer
        self._id = -1
        self._parent = -1
        self._t0 = 0.0

    def set(self, key: str, value) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self._id = tracer._next_id
        tracer._next_id += 1
        self._parent = tracer._stack[-1]._id if tracer._stack else -1
        tracer._stack.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._t0
        tracer = self._tracer
        tracer._stack.pop()
        record = {
            "span_id": self._id,
            "parent_id": self._parent,
            "name": self.name,
            "start": round(self._t0 - tracer._t0, 6),
            "seconds": round(elapsed, 6),
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        if self.attrs:
            record["attrs"] = self.attrs
        if self.events:
            record["events"] = self.events
        tracer.spans.append(record)


class Tracer:
    """Collects finished span records, in completion order.

    ``start`` fields (and event ``t`` stamps) are seconds since the
    tracer was created (one monotonic epoch per tracer), so a span file
    is self-contained and diffable without absolute timestamps.
    """

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[Span] = []
        self._next_id = 0
        self._t0 = time.perf_counter()

    def span(self, name: str, **attrs) -> Span:
        """A new span context manager under the currently open span."""
        return Span(self, name, attrs)

    def event(self, doc: Dict) -> None:
        """File ``{"t": <seconds since the tracer epoch>, **doc}`` on the
        innermost open span; its record then carries an ``events`` list.
        ``t`` is left unrounded, so sorting by it restores emission order
        across spans.  With no span open the event is dropped."""
        if self._stack:
            self._stack[-1].events.append(
                {"t": time.perf_counter() - self._t0, **doc}
            )

    # -- outputs ---------------------------------------------------------

    def write_jsonl(self, path: str) -> int:
        """Write one JSON object per finished span (events included);
        returns the count.  The write is atomic
        (:func:`~repro.obs.export.atomic_write_text`) like every other
        artifact writer in the package."""
        from repro.obs.export import atomic_write_text

        lines = [json.dumps(rec, separators=(",", ":")) for rec in self.spans]
        atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
        return len(self.spans)

    def profile(self) -> List[Dict]:
        """Aggregate spans by name: calls, total seconds, self seconds
        (total minus directly nested child time), sorted by self time
        descending — the self-profile table's rows."""
        child_time: Dict[int, float] = {}
        for rec in self.spans:
            parent = rec["parent_id"]
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + rec["seconds"]
        agg: Dict[str, Dict] = {}
        for rec in self.spans:
            row = agg.get(rec["name"])
            if row is None:
                row = agg[rec["name"]] = {
                    "name": rec["name"], "calls": 0,
                    "total_seconds": 0.0, "self_seconds": 0.0,
                }
            row["calls"] += 1
            row["total_seconds"] += rec["seconds"]
            row["self_seconds"] += max(
                0.0, rec["seconds"] - child_time.get(rec["span_id"], 0.0)
            )
        rows = sorted(
            agg.values(), key=lambda r: (-r["self_seconds"], r["name"])
        )
        for row in rows:
            row["total_seconds"] = round(row["total_seconds"], 6)
            row["self_seconds"] = round(row["self_seconds"], 6)
        return rows


class _NullSpan:
    """The shared no-op span: enters and exits for free."""

    __slots__ = ()

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: ``span()`` hands back one shared no-op
    context manager, so instrumentation sites cost almost nothing when
    tracing is off."""

    __slots__ = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN


NULL_TRACER = NullTracer()

_current: object = NULL_TRACER


def get_tracer():
    """The ambient tracer: :data:`NULL_TRACER` unless one was installed
    with :func:`set_tracer` / :func:`use_tracer`."""
    return _current


def set_tracer(tracer) -> object:
    """Install ``tracer`` as the ambient tracer; returns the previous
    one (pass it back to restore)."""
    global _current
    previous = _current
    _current = tracer if tracer is not None else NULL_TRACER
    return previous


class _TracerScope:
    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer):
        self._tracer = tracer
        self._previous = None

    def __enter__(self):
        self._previous = set_tracer(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc, tb):
        set_tracer(self._previous)


def use_tracer(tracer: Optional[Tracer] = None):
    """Context manager scoping ``tracer`` (a fresh one by default) as
    the ambient tracer; yields it."""
    return _TracerScope(tracer if tracer is not None else Tracer())


def active() -> bool:
    """Whether a real (recording) tracer is ambient."""
    return _current is not NULL_TRACER


def format_profile(rows: List[Dict], limit: int = 20) -> str:
    """Render :meth:`Tracer.profile` rows as the where-did-time-go
    table.

    >>> print(format_profile([
    ...     {"name": "stage.three-phase", "calls": 1,
    ...      "total_seconds": 0.08, "self_seconds": 0.08},
    ...     {"name": "flow.run", "calls": 1,
    ...      "total_seconds": 0.1, "self_seconds": 0.02},
    ... ]))
    span                            calls   total(s)    self(s)   self%
    stage.three-phase                   1   0.080000   0.080000   80.0%
    flow.run                            1   0.100000   0.020000   20.0%
    """
    total_self = sum(r["self_seconds"] for r in rows) or 1.0
    lines = [
        f"{'span':<30} {'calls':>6} {'total(s)':>10} {'self(s)':>10} {'self%':>7}"
    ]
    for row in rows[:limit]:
        share = 100.0 * row["self_seconds"] / total_self
        lines.append(
            f"{row['name']:<30} {row['calls']:>6} "
            f"{row['total_seconds']:>10.6f} {row['self_seconds']:>10.6f} "
            f"{share:>6.1f}%"
        )
    if len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more span name(s)")
    return "\n".join(lines)
