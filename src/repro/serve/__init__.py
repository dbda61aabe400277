"""ATPG-as-a-service: the ``repro-serve`` daemon and its pieces.

A long-lived asyncio process that accepts netlist / campaign
submissions over HTTP/JSON, executes them on the campaign runner's
persistent fork workers, streams each run's flow events live to any
number of subscribers, and answers repeated submissions from the shared
content-addressed warm cache with zero compute.  Stdlib only — pure
``asyncio.start_server``, no web framework.

* :mod:`repro.serve.protocol` — minimal HTTP/1.1 on asyncio streams
  (router, streaming responses, request limits);
* :mod:`repro.serve.jobs` — submission parsing (shared planning with
  campaigns, so cache keys match exactly), the per-job
  :class:`~repro.serve.jobs.EventLog`, and the job table record;
* :mod:`repro.serve.qos` — admission control: bounded queue, per-client
  caps, deadline clamping;
* :mod:`repro.serve.executor` — inline-thread and fork-worker back ends;
* :mod:`repro.serve.server` — :class:`~repro.serve.server.ReproServer`
  and the ``repro-serve`` CLI;
* :mod:`repro.serve.client` — a stdlib ``urllib`` client used by the
  tests, the benchmark, and CI smoke.

See ``docs/serving.md`` for the full API surface and a worked session.
"""

from repro.serve.client import ServeClient
from repro.serve.jobs import EventLog, JobRecord
from repro.serve.qos import QosPolicy

__all__ = [
    "EventLog",
    "JobRecord",
    "QosPolicy",
    "ReproServer",
    "ServeClient",
    "serve_main",
]


def __getattr__(name):
    # The server is imported on first use, not with the package, so
    # ``python -m repro.serve.server`` runs it once, under one name.
    if name in ("ReproServer", "serve_main"):
        from repro.serve import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
