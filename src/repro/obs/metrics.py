"""Labeled metrics: counters, gauges, fixed-bucket histograms.

The registry is deliberately Prometheus-shaped — metric *families* with
a name, a help string, and a fixed tuple of label names; each distinct
label-value combination is one *child* time series — but has zero
dependencies and zero background machinery: everything is plain dicts
and floats, updated synchronously by the code being measured.

Three client-side types:

* :class:`Counter` — monotonically increasing (``inc``);
* :class:`Gauge` — a value that goes both ways (``set`` / ``inc``);
* :class:`Histogram` — fixed cumulative buckets plus sum and count
  (``observe``), for latency-style distributions.

A :class:`MetricsRegistry` owns families (``counter()`` / ``gauge()`` /
``histogram()`` are get-or-create), snapshots to a JSON-friendly dict
(:meth:`MetricsRegistry.snapshot`) and merges snapshots from other
processes (:meth:`MetricsRegistry.merge_snapshot`) — that pair is the
campaign-aggregation transport: each campaign worker job's final
snapshot rides its result payload, and the parent merges it once into
one campaign-wide registry.  Exposition (Prometheus text / JSON)
lives in :mod:`repro.obs.export`.

**Process-global switch.**  Instrumented hot paths (the arena kernels,
the BDD manager) guard their measurement code on :func:`enabled`, which
is off by default — a plain run pays one cheap check per handle, not
per operation.  ``enable()`` arms collection into the default registry
(or one you pass); the CLI's ``--metrics`` flag flips it for you.

>>> reg = MetricsRegistry()
>>> c = reg.counter("requests_total", "Requests served.", ("verb",))
>>> c.labels("GET").inc()
>>> c.labels("GET").inc(2)
>>> c.labels("PUT").inc()
>>> sorted((lv, child.value) for lv, child in c.children())
[(('GET',), 3.0), (('PUT',), 1.0)]

The flow adapter, :class:`MetricsConsumer`, derives flow metrics purely
from :class:`~repro.flow.events.EventBus` events — subscribing it never
changes the event stream, so determinism guarantees are untouched.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsConsumer",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
    "enabled",
]

#: Default histogram bucket upper bounds (seconds-flavoured): wide
#: enough for microsecond kernels and ten-minute campaign jobs alike.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
)


class _Child:
    """One (family, label values) time series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set(self, value: float) -> None:
        self.value = value


class _HistogramChild:
    """One histogram series: cumulative bucket counts, sum, count."""

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]):
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # trailing +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1


class _Family:
    """Shared family behaviour: label binding and child bookkeeping."""

    kind = ""

    def __init__(self, name: str, help: str, label_names: Tuple[str, ...]):
        self.name = name
        self.help = help
        self.label_names = label_names
        self._children: Dict[Tuple[str, ...], object] = {}

    def _new_child(self):
        raise NotImplementedError

    def labels(self, *values):
        """The child series for one label-value combination (created on
        first use).  Value count must match the family's label names."""
        if len(values) != len(self.label_names):
            raise ReproError(
                f"metric {self.name!r} takes {len(self.label_names)} "
                f"label value(s) {self.label_names}, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_child()
        return child

    def children(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        """``(label values, child)`` pairs in insertion order."""
        return self._children.items()

    def _unlabeled(self):
        if self.label_names:
            raise ReproError(
                f"metric {self.name!r} has labels {self.label_names}; "
                "bind them with .labels(...) first"
            )
        return self.labels()


class Counter(_Family):
    """A monotonically increasing metric family."""

    kind = "counter"

    def _new_child(self) -> _Child:
        return _Child()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabeled series (labelless families only)."""
        self._unlabeled().inc(amount)

    @property
    def value(self) -> float:
        child = self._children.get(())
        return child.value if child is not None else 0.0


class Gauge(_Family):
    """A metric family whose value moves both ways."""

    kind = "gauge"

    def _new_child(self) -> _Child:
        return _Child()

    def set(self, value: float) -> None:
        self._unlabeled().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._unlabeled().inc(amount)

    @property
    def value(self) -> float:
        child = self._children.get(())
        return child.value if child is not None else 0.0


class Histogram(_Family):
    """A fixed-bucket cumulative histogram family."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Tuple[str, ...],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, label_names)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ReproError(f"histogram {name!r} needs at least one bucket")
        self.buckets = bounds

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._unlabeled().observe(value)


class MetricsRegistry:
    """A set of metric families, addressable by name.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: repeated
    registration with the same shape returns the existing family, so
    every module can declare the metrics it uses without coordination.
    Registration is guarded by a lock (campaign code touches a registry
    from callback paths); sample updates are plain float arithmetic —
    atomic enough under the GIL for accounting purposes.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name, help, label_names, **kwargs):
        label_names = tuple(label_names)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls) or family.label_names != label_names:
                    raise ReproError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels {family.label_names}"
                    )
                return family
            family = cls(name, help, label_names, **kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, label_names)

    def gauge(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, label_names)

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, label_names, buckets=buckets
        )

    def families(self) -> List[_Family]:
        with self._lock:
            return list(self._families.values())

    def get(self, name: str) -> Optional[_Family]:
        return self._families.get(name)

    def value(self, name: str, *label_values) -> float:
        """Convenience reader: the current value of one series (0.0
        when the family or series does not exist yet)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        child = family._children.get(tuple(str(v) for v in label_values))
        if child is None:
            return 0.0
        return child.value if isinstance(child, _Child) else child.sum

    # -- snapshot / merge (the campaign-aggregation transport) -----------

    def snapshot(self) -> Dict:
        """A JSON-friendly copy of every series: the wire format workers
        ship to the campaign parent, and the input of
        :func:`repro.obs.export.to_prometheus_text`."""
        doc: Dict = {"counters": [], "gauges": [], "histograms": []}
        for family in self.families():
            if isinstance(family, Histogram):
                doc["histograms"].append(
                    {
                        "name": family.name,
                        "help": family.help,
                        "label_names": list(family.label_names),
                        "buckets": list(family.buckets),
                        "samples": [
                            [
                                list(lv),
                                {
                                    "bucket_counts": list(ch.bucket_counts),
                                    "sum": ch.sum,
                                    "count": ch.count,
                                },
                            ]
                            for lv, ch in family.children()
                        ],
                    }
                )
            else:
                key = "counters" if isinstance(family, Counter) else "gauges"
                doc[key].append(
                    {
                        "name": family.name,
                        "help": family.help,
                        "label_names": list(family.label_names),
                        "samples": [
                            [list(lv), ch.value] for lv, ch in family.children()
                        ],
                    }
                )
        return doc

    def merge_snapshot(self, snap: Dict) -> None:
        """Fold another registry's snapshot into this one: counter and
        histogram samples *add*, gauge samples take the incoming value
        (last write wins — gauges describe a current level, not a
        total).  Families are created on first sight, so the parent
        needs no advance knowledge of what workers measure."""
        for rec in snap.get("counters", ()):
            family = self.counter(rec["name"], rec.get("help", ""),
                                  rec.get("label_names", ()))
            for lv, value in rec.get("samples", ()):
                family.labels(*lv).inc(value)
        for rec in snap.get("gauges", ()):
            family = self.gauge(rec["name"], rec.get("help", ""),
                                rec.get("label_names", ()))
            for lv, value in rec.get("samples", ()):
                family.labels(*lv).set(value)
        for rec in snap.get("histograms", ()):
            family = self.histogram(
                rec["name"], rec.get("help", ""), rec.get("label_names", ()),
                buckets=rec.get("buckets", DEFAULT_BUCKETS),
            )
            for lv, sample in rec.get("samples", ()):
                child = family.labels(*lv)
                counts = sample.get("bucket_counts", ())
                for i, n in enumerate(counts):
                    if i < len(child.bucket_counts):
                        child.bucket_counts[i] += n
                child.sum += sample.get("sum", 0.0)
                child.count += sample.get("count", 0)


# ---------------------------------------------------------------------------
# Process-global default registry and the enabled switch
# ---------------------------------------------------------------------------

_default_registry = MetricsRegistry()
_enabled = False


def get_registry() -> MetricsRegistry:
    """The process-global default registry (always present; collection
    into it only happens where guarded by :func:`enabled`)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Arm metrics collection (optionally into a fresh ``registry``);
    returns the active registry."""
    global _enabled
    if registry is not None:
        set_registry(registry)
    _enabled = True
    return _default_registry


def disable() -> None:
    global _enabled
    _enabled = False


def enabled() -> bool:
    """Whether instrumented code should record samples.  Hot paths check
    this once per handle/call, never per inner-loop operation."""
    return _enabled


# ---------------------------------------------------------------------------
# Flow adapter: metrics derived from the event stream
# ---------------------------------------------------------------------------


class MetricsConsumer:
    """An :class:`~repro.flow.events.EventBus` listener deriving flow
    metrics from the typed event stream.

    Purely observational: it never emits, filters, or reorders events,
    so a run with a ``MetricsConsumer`` subscribed produces exactly the
    event stream (and result) it would produce without one.  Wall-clock
    data enters only through :attr:`StageFinished.seconds`, which the
    events already carry.

    Series it maintains (all prefixed ``repro_flow_``):

    * ``events_total{event}`` — every event, by type;
    * ``faults_classified_total{status,reason}``;
    * ``tests_added_total{source}``;
    * ``stage_seconds{stage}`` (histogram) and
      ``stage_runs_total{stage}``;
    * ``budget_exhausted_total{stage,reason}``.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        reg = registry if registry is not None else get_registry()
        self.registry = reg
        self._events = reg.counter(
            "repro_flow_events_total", "Flow events observed.", ("event",)
        )
        self._classified = reg.counter(
            "repro_flow_faults_classified_total",
            "Fault verdicts by status and abort reason.",
            ("status", "reason"),
        )
        self._tests = reg.counter(
            "repro_flow_tests_added_total",
            "Test sequences added, by generating stage.",
            ("source",),
        )
        self._stage_seconds = reg.histogram(
            "repro_flow_stage_seconds",
            "Wall-clock seconds per finished stage.",
            ("stage",),
        )
        self._stage_runs = reg.counter(
            "repro_flow_stage_runs_total", "Finished stage executions.", ("stage",)
        )
        self._budget = reg.counter(
            "repro_flow_budget_exhausted_total",
            "Budget exhaustions, by stage and what ran out.",
            ("stage", "reason"),
        )

    def __call__(self, event) -> None:
        from repro.flow.events import (
            BudgetExhausted,
            FaultClassified,
            StageFinished,
            TestAdded,
        )

        self._events.labels(type(event).__name__).inc()
        if isinstance(event, FaultClassified):
            self._classified.labels(event.status, event.reason).inc()
        elif isinstance(event, TestAdded):
            self._tests.labels(event.source).inc()
        elif isinstance(event, StageFinished):
            self._stage_seconds.labels(event.stage).observe(event.seconds)
            self._stage_runs.labels(event.stage).inc()
        elif isinstance(event, BudgetExhausted):
            self._budget.labels(event.stage, event.reason).inc()


#: Callable type listeners conform to (mirrors flow.events.Listener).
Listener = Callable[[object], None]
