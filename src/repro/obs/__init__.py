"""Observability: metrics and span tracing.

The observability subsystem the rest of the package reports into — see
``docs/observability.md`` for the full taxonomy and examples:

* :mod:`repro.obs.metrics` — labeled counters (the only metric type)
  in a :class:`MetricsRegistry`, a process-global default registry
  behind an :func:`enabled` switch, and the :class:`MetricsConsumer`
  that derives flow metrics from the flow's event records;
* :mod:`repro.obs.trace` — :class:`Tracer` context-manager spans (the
  only home of wall-clock data; :meth:`Tracer.event` is the run
  listener that files each event record on its span), the
  ambient-tracer pattern
  (:func:`get_tracer` / :func:`use_tracer`, no-op by default), and the
  self-profile table;
* :mod:`repro.obs.export` — zero-dependency Prometheus-text and JSON
  exposition plus a minimal parser for CI assertions.

Everything here is observational: enabling any of it never changes the
flow's event stream or serialized results.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.obs.export": (
        "parse_prometheus_text", "to_json_text", "to_prometheus_text", "write_metrics",
    ),
    "repro.obs.metrics": (
        "Counter", "MetricsConsumer", "MetricsRegistry", "disable", "enable", "enabled",
        "get_registry", "set_registry",
    ),
    "repro.obs.trace": (
        "NULL_TRACER", "NullTracer", "Span", "Tracer", "active", "format_profile",
        "get_tracer", "set_tracer", "use_tracer",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
