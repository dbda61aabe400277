"""Labeled counters: what happened, never how long it took.

The registry is deliberately Prometheus-shaped — metric *families* with
a name, a help string, and a fixed tuple of label names; each distinct
label-value combination is one *child* time series — but has zero
dependencies and zero background machinery: everything is plain dicts
and floats, updated synchronously by the code being measured.

Counters are the only type: each series only ever goes up (``inc``),
so two runs of the same work record the same numbers and a campaign's
per-job snapshots merge by addition.  Wall-clock data belongs to spans
(:mod:`repro.obs.trace`) alone.

A :class:`MetricsRegistry` owns families (``counter()`` is
get-or-create), snapshots to a JSON-friendly dict
(:meth:`MetricsRegistry.snapshot`) and merges snapshots from other
processes (:meth:`MetricsRegistry.merge_snapshot`) — that pair is the
campaign-aggregation transport: each campaign worker job's final
snapshot rides its ``done`` message, and the parent merges it once into
one campaign-wide registry.  Exposition (Prometheus text / JSON)
lives in :mod:`repro.obs.export`.

**Process-global switch.**  Instrumented code (the settling explorers,
the BDD manager, the campaign runner) guards its measurement code on
:func:`enabled`, which is off by default — a plain run pays one cheap
check per call site, not per operation.  ``enable()`` arms collection
into the default registry (or one you pass), :func:`armed` over one
block only; the CLI's ``--metrics`` flag flips it for you.

>>> reg = MetricsRegistry()
>>> c = reg.counter("requests_total", "Requests served.", ("verb",))
>>> c.labels("GET").inc()
>>> c.labels("GET").inc(2)
>>> c.labels("PUT").inc()
>>> sorted((lv, child.value) for lv, child in c.children())
[(('GET',), 3.0), (('PUT',), 1.0)]

The flow adapter, :class:`MetricsConsumer`, derives flow metrics purely
from the flow's event records — subscribing it never changes the event
stream, so determinism guarantees are untouched.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = [
    "Counter",
    "MetricsRegistry",
    "MetricsConsumer",
    "get_registry",
    "set_registry",
    "armed",
    "enable",
    "disable",
    "enabled",
]


class _Child:
    """One (family, label values) time series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Counter:
    """A monotonically increasing metric family: label binding and
    child-series bookkeeping."""

    def __init__(self, name: str, help: str, label_names: Tuple[str, ...]):
        self.name = name
        self.help = help
        self.label_names = label_names
        self._children: Dict[Tuple[str, ...], _Child] = {}

    def labels(self, *values) -> _Child:
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
            child = self._children[key] = _Child()
        return child

    def children(self) -> Iterable[Tuple[Tuple[str, ...], _Child]]:
        """``(label values, child)`` pairs in insertion order."""
        return self._children.items()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabeled series (labelless families only)."""
        if self.label_names:
            raise ReproError(
                f"metric {self.name!r} has labels {self.label_names}; "
                "bind them with .labels(...) first"
            )
        self.labels().inc(amount)

    @property
    def value(self) -> float:
        child = self._children.get(())
        return child.value if child is not None else 0.0


class MetricsRegistry:
    """A set of counter families, addressable by name.

    ``counter`` is get-or-create: repeated registration with the same
    label names returns the existing family, so every module can
    declare the metrics it uses without coordination.  Registration is
    guarded by a lock (campaign code touches a registry from callback
    paths); sample updates are plain float arithmetic — atomic enough
    under the GIL for accounting purposes.
    """

    def __init__(self) -> None:
        self._families: Dict[str, Counter] = {}
        self._lock = threading.Lock()

    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Counter:
        label_names = tuple(label_names)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = Counter(name, help, label_names)
            elif family.label_names != label_names:
                raise ReproError(
                    f"metric {name!r} already registered "
                    f"with labels {family.label_names}"
                )
            return family

    def families(self) -> List[Counter]:
        with self._lock:
            return list(self._families.values())

    def get(self, name: str) -> Optional[Counter]:
        return self._families.get(name)

    def value(self, name: str, *label_values) -> float:
        """Convenience reader: the current value of one series (0.0
        when the family or series does not exist yet)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        child = family._children.get(tuple(str(v) for v in label_values))
        return child.value if child is not None else 0.0

    # -- snapshot / merge (the campaign-aggregation transport) -----------

    def snapshot(self) -> Dict:
        """A JSON-friendly copy of every series: the wire format workers
        ship to the campaign parent, and the input of
        :func:`repro.obs.export.to_prometheus_text`."""
        return {
            "counters": [
                {
                    "name": family.name,
                    "help": family.help,
                    "label_names": list(family.label_names),
                    "samples": [
                        [list(lv), ch.value] for lv, ch in family.children()
                    ],
                }
                for family in self.families()
            ]
        }

    def merge_snapshot(self, snap: Dict) -> None:
        """Fold another registry's snapshot into this one: samples
        *add*.  Families are created on first sight, so the parent
        needs no advance knowledge of what workers measure."""
        for rec in snap.get("counters", ()):
            family = self.counter(rec["name"], rec.get("help", ""),
                                  rec.get("label_names", ()))
            for lv, value in rec.get("samples", ()):
                family.labels(*lv).inc(value)


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


@contextmanager
def armed(arm: bool = True) -> Iterator[None]:
    """Arm collection over the block when ``arm``, then restore the
    switch's previous state; the registry keeps what was recorded."""
    global _enabled
    previous = _enabled
    _enabled = previous or arm
    try:
        yield
    finally:
        _enabled = previous


def enabled() -> bool:
    """Whether instrumented code should record samples.  Hot paths check
    this once per handle/call, never per inner-loop operation."""
    return _enabled


# ---------------------------------------------------------------------------
# Flow adapter: metrics derived from the event stream
# ---------------------------------------------------------------------------


class MetricsConsumer:
    """A flow run listener deriving flow metrics from the event records
    (see :mod:`repro.flow.context`).

    Purely observational: it never emits, filters, or reorders events,
    so a run with a ``MetricsConsumer`` subscribed produces exactly the
    event stream (and result) it would produce without one.  It counts;
    how long a stage took is its ``stage.*`` span's business.

    Series it maintains (all prefixed ``repro_flow_``):

    * ``events_total{event}`` — every event, by kind;
    * ``faults_classified_total{status,reason}``;
    * ``tests_added_total{source}``;
    * ``stage_runs_total{stage}``;
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
        self._stage_runs = reg.counter(
            "repro_flow_stage_runs_total", "Finished stage executions.", ("stage",)
        )
        self._budget = reg.counter(
            "repro_flow_budget_exhausted_total",
            "Budget exhaustions, by stage and what ran out.",
            ("stage", "reason"),
        )

    def __call__(self, doc: Dict) -> None:
        kind = doc["event"]
        self._events.labels(kind).inc()
        if kind == "FaultClassified":
            self._classified.labels(doc["status"], doc["reason"]).inc()
        elif kind == "TestAdded":
            self._tests.labels(doc["source"]).inc()
        elif kind == "StageFinished":
            self._stage_runs.labels(doc["stage"]).inc()
        elif kind == "BudgetExhausted":
            self._budget.labels(doc["stage"], doc["reason"]).inc()
