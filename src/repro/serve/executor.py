"""Job execution back ends for the server: one inline thread or the
campaign runner's persistent fork workers.

Both back ends are thin adapters over :mod:`repro.campaign.runner` and
speak the same callback protocol — every callback may be invoked from a
non-event-loop thread; the server marshals back onto the loop:

* ``on_start(key)`` — the job left the queue and is running;
* ``on_event(key, doc)`` — one flow event (JSON-ready dict), live;
* ``on_done(key, status, payload, error, seconds)`` — terminal, with
  the campaign runner's outcome vocabulary (``done`` | ``failed`` |
  ``crashed`` | ``timeout`` | ``hung``).

Jobs run through the runner's one per-job path,
:func:`~repro.campaign.runner.run_job`, and every terminal outcome
leaves through :meth:`_Executor._finish`: cohort stats are folded into
the server's registry once, and the payload is the canonical,
telemetry-free result (the server's ambient metrics registry must not
leak into payloads — cache entries and client results stay
byte-identical to a plain ``repro-atpg`` run).

:class:`ForkedExecutor` is the production back end: it steps the
campaign runner's :class:`~repro.campaign.runner._Pool` — persistent
fork workers, strict in-order batch accounting, crash isolation, and
the heartbeat/hang-timeout policing — with the worker-side
``relay_events`` switch turned on so the full flow event stream crosses
the process boundary for live client streaming.  A worker that dies,
hangs, or blows its per-job budget is killed and replaced exactly as in
a campaign, and the affected job resolves with that status instead of
wedging the server.

:class:`InlineExecutor` runs jobs one at a time on a single daemon
thread in the server process (``--workers 0``): no fork, no pickling,
events delivered by direct listener call.  The wall-clock QoS deadline
is still honored (cooperatively, by the flow's own budget), but a
pathological job cannot be killed — it is the honest-timing/debug mode,
matching ``repro-campaign --workers 0``.
"""

from __future__ import annotations

import queue as queue_mod
import threading
from typing import Callable, Dict, Optional

from repro.campaign.plan import Job
from repro.campaign.runner import (
    JobOutcome,
    _Pool,
    canonical_payload,
    note_incremental_stats,
    run_job,
)
from repro.campaign.store import ResultStore

__all__ = ["InlineExecutor", "ForkedExecutor"]

OnStart = Callable[[str], None]
OnEvent = Callable[[str, Dict], None]
OnDone = Callable[[str, str, Optional[Dict], str, float], None]


class _Executor:
    """The callback protocol and the one terminal-outcome adapter."""

    def __init__(self, on_start: OnStart, on_event: OnEvent, on_done: OnDone):
        self.on_start = on_start
        self.on_event = on_event
        self.on_done = on_done

    def _finish(self, outcome: JobOutcome) -> None:
        note_incremental_stats(outcome.incremental)
        status = "done" if outcome.status == "ran" else outcome.status
        self.on_done(
            outcome.job.key, status, canonical_payload(outcome.payload),
            outcome.error, outcome.seconds,
        )


class InlineExecutor(_Executor):
    """Run jobs one at a time on a daemon thread in-process.

    With ``incremental`` (and a ``store``), jobs resolve through the
    per-cohort cache; the cohort accounting folds straight into the
    server's ambient registry (no process boundary, so no snapshot
    round trip)."""

    def __init__(
        self,
        on_start: OnStart,
        on_event: OnEvent,
        on_done: OnDone,
        store: Optional[ResultStore] = None,
        incremental: bool = False,
    ):
        super().__init__(on_start, on_event, on_done)
        self.store = store if incremental else None
        self._tasks: "queue_mod.Queue[Optional[Job]]" = queue_mod.Queue()
        self._thread = threading.Thread(
            target=self._worker, daemon=True, name="serve-inline"
        )
        self._thread.start()

    def submit(self, job: Job) -> None:
        self._tasks.put(job)

    def _worker(self) -> None:
        while True:
            job = self._tasks.get()
            if job is None:
                return
            self.on_start(job.key)
            listeners = (
                lambda ev, key=job.key: self.on_event(key, ev.to_json_dict()),
            )
            self._finish(run_job(job, self.store, listeners=listeners))

    def shutdown(self, timeout: float = 10.0) -> None:
        self._tasks.put(None)
        self._thread.join(timeout=timeout)


class ForkedExecutor(_Executor):
    """Persistent fork workers with full event relay and policing."""

    def __init__(
        self,
        workers: int,
        on_start: OnStart,
        on_event: OnEvent,
        on_done: OnDone,
        timeout: float = 600.0,
        hang_timeout: Optional[float] = None,
        incremental: bool = False,
        cache_root: Optional[str] = None,
    ):
        super().__init__(on_start, on_event, on_done)
        self._pool = _Pool(
            [], workers, timeout, hang_timeout, relay_events=True,
            incremental=incremental and cache_root is not None,
            cache_root=cache_root,
        )
        self._incoming: "queue_mod.Queue[Job]" = queue_mod.Queue()
        self._started: set = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="serve-pool"
        )
        self._pool.start()
        self._thread.start()

    def submit(self, job: Job) -> None:
        self._incoming.put(job)

    def _finish(self, outcome: JobOutcome) -> None:
        self._started.discard(outcome.job.key)
        super()._finish(outcome)

    def _on_beat(self, wid: int, key: str, snapshot=None) -> None:
        if key in self._pool.unresolved and key not in self._started:
            self._started.add(key)
            self.on_start(key)

    def _on_event(self, wid: int, key: str, doc: Dict) -> None:
        self._on_beat(wid, key)
        self.on_event(key, doc)

    def _loop(self) -> None:
        while not self._stop.is_set():
            jobs = []
            while True:
                try:
                    jobs.append(self._incoming.get_nowait())
                except queue_mod.Empty:
                    break
            if jobs:
                self._pool.add_jobs(jobs)
            self._pool.step(self._finish, self._on_beat, self._on_event)

    def shutdown(self, timeout: float = 10.0) -> None:
        self._stop.set()
        self._thread.join(timeout=timeout)
        self._pool.shutdown()
