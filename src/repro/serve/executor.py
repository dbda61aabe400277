"""Job execution back ends for the server: inline threads or the
campaign runner's persistent fork workers.

Both back ends speak the same callback protocol — every callback may be
invoked from a non-event-loop thread; the server marshals back onto the
loop:

* ``on_start(key)`` — the job left the queue and is running;
* ``on_event(key, doc)`` — one flow event (JSON-ready dict), live;
* ``on_done(key, status, payload, error, seconds)`` — terminal, with
  the campaign runner's outcome vocabulary (``done`` | ``failed`` |
  ``crashed`` | ``timeout`` | ``hung``).

:class:`ForkedExecutor` is the production back end: it reuses the
campaign runner's :class:`~repro.campaign.runner._Pool` — persistent
fork workers, strict in-order batch accounting, crash isolation, and
the heartbeat/hang-timeout policing — with the worker-side
``relay_events`` switch turned on so the full flow event stream crosses
the process boundary for live client streaming.  A worker that dies,
hangs, or blows its per-job budget is killed and replaced exactly as in
a campaign, and the affected job resolves with that status instead of
wedging the server.

:class:`InlineExecutor` runs jobs on daemon threads in the server
process (``--workers 0``): no fork, no pickling, events delivered by
direct listener call.  The wall-clock QoS deadline is still honored
(cooperatively, by the flow's own budget), but a pathological job
cannot be killed — it is the honest-timing/debug mode, matching
``repro-campaign --workers 0``.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from typing import Callable, Dict, Optional

from repro.campaign.plan import Job
from repro.campaign.runner import (
    JobOutcome,
    _police_workers,
    _Pool,
    execute_job,
    execute_job_incremental,
    note_incremental_stats,
)
from repro.campaign.store import ResultStore

__all__ = ["InlineExecutor", "ForkedExecutor"]

OnStart = Callable[[str], None]
OnEvent = Callable[[str, Dict], None]
OnDone = Callable[[str, str, Optional[Dict], str, float], None]

#: Parent-side policing / queue-poll cadence, as in the campaign runner.
_POLL_SECONDS = 0.2


def _clean_payload(result) -> Dict:
    """The canonical result JSON: never ship the opt-in telemetry block
    (the server's ambient metrics registry must not leak into payloads —
    cache entries and client results stay byte-identical to a plain
    ``repro-atpg`` run)."""
    payload = result.to_json_dict()
    payload.pop("telemetry", None)
    return payload


class InlineExecutor:
    """Run jobs on ``n_threads`` daemon threads in-process.

    With ``incremental`` (and a ``store``), jobs resolve through
    :func:`~repro.campaign.runner.execute_job_incremental`; the cohort
    accounting folds straight into the server's ambient registry (no
    process boundary, so no snapshot round trip)."""

    def __init__(
        self,
        n_threads: int,
        on_start: OnStart,
        on_event: OnEvent,
        on_done: OnDone,
        store: Optional[ResultStore] = None,
        incremental: bool = False,
    ):
        self.on_start = on_start
        self.on_event = on_event
        self.on_done = on_done
        self.store = store if incremental else None
        self._tasks: "queue_mod.Queue[Optional[Job]]" = queue_mod.Queue()
        self._threads = [
            threading.Thread(target=self._worker, daemon=True, name=f"serve-inline-{i}")
            for i in range(max(1, n_threads))
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, job: Job) -> None:
        self._tasks.put(job)

    def _worker(self) -> None:
        while True:
            job = self._tasks.get()
            if job is None:
                return
            self.on_start(job.key)
            t0 = time.perf_counter()
            listeners = (
                lambda ev, key=job.key: self.on_event(key, ev.to_json_dict()),
            )
            try:
                if self.store is not None:
                    payload, _live, inc = execute_job_incremental(
                        job, self.store, listeners=listeners
                    )
                    note_incremental_stats(inc)
                    payload = {
                        k: v for k, v in payload.items() if k != "telemetry"
                    }
                    self.on_done(
                        job.key, "done", payload, "",
                        time.perf_counter() - t0,
                    )
                else:
                    result = execute_job(job, listeners=listeners)
                    self.on_done(
                        job.key, "done", _clean_payload(result), "",
                        time.perf_counter() - t0,
                    )
            except Exception as exc:
                self.on_done(
                    job.key, "failed", None, f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - t0,
                )

    def shutdown(self, timeout: float = 10.0) -> None:
        for _ in self._threads:
            self._tasks.put(None)
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(timeout=max(0.1, deadline - time.monotonic()))


class ForkedExecutor:
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
        self.on_start = on_start
        self.on_event = on_event
        self.on_done = on_done
        self._pool = _Pool(
            [], workers, timeout, hang_timeout, relay_events=True,
            incremental=incremental and cache_root is not None,
            cache_root=cache_root,
        )
        self._incoming: "queue_mod.Queue[Job]" = queue_mod.Queue()
        self._unresolved: set = set()
        self._started: set = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="serve-pool"
        )
        for _ in range(workers):
            self._pool.spawn()
        self._thread.start()

    def submit(self, job: Job) -> None:
        self._incoming.put(job)

    def _resolve(self, outcome: JobOutcome) -> None:
        """Terminal-state adapter shared by the event loop (``done`` /
        ``fail`` messages) and ``_police_workers`` (``crashed`` /
        ``timeout`` / ``hung`` verdicts)."""
        key = outcome.job.key
        self._unresolved.discard(key)
        self._started.discard(key)
        status = "done" if outcome.status == "ran" else outcome.status
        payload = outcome.payload
        if payload is not None and "telemetry" in payload:
            payload = {k: v for k, v in payload.items() if k != "telemetry"}
        self.on_done(key, status, payload, outcome.error, outcome.seconds)

    def _mark_started(self, key: str) -> None:
        if key in self._unresolved and key not in self._started:
            self._started.add(key)
            self.on_start(key)

    def _loop(self) -> None:
        pool = self._pool
        last_police = time.monotonic()
        while not self._stop.is_set():
            moved = False
            while True:
                try:
                    job = self._incoming.get_nowait()
                except queue_mod.Empty:
                    break
                pool.add_jobs([job])
                self._unresolved.add(job.key)
                moved = True
            if moved:
                while (
                    self._unresolved
                    and len(pool.procs) < pool.target_workers
                ):
                    pool.spawn()  # replace workers that died while idle
                pool.dispatch_all()
            try:
                event = pool.event_q.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                event = None
            if time.monotonic() - last_police >= _POLL_SECONDS:
                _police_workers(pool, self._unresolved, self._resolve)
                pool.dispatch_all()
                last_police = time.monotonic()
            if event is None:
                continue
            kind, wid, key, seconds = event[0], event[1], event[2], event[3]
            if kind == "beat":
                if wid in pool.procs:
                    pool.note_beat(wid)
                self._mark_started(key)
                continue
            if kind == "event":
                if wid in pool.procs:
                    pool.note_beat(wid)
                self._mark_started(key)
                self.on_event(key, event[4])
                continue
            if kind == "batch-done":
                if wid in pool.procs:
                    pool.note_event(wid, None)
                    pool.dispatch(wid)
                continue
            if wid in pool.procs:
                pool.note_event(wid, key)
            if key in self._unresolved:
                job = pool.job_of[key]
                if kind == "done":
                    inc = event[5] if len(event) > 5 else None
                    note_incremental_stats(inc)
                    self._resolve(
                        JobOutcome(
                            job, "ran", payload=event[4], seconds=seconds,
                            incremental=inc,
                        )
                    )
                else:
                    self._resolve(
                        JobOutcome(job, "failed", error=event[4], seconds=seconds)
                    )

    def shutdown(self, timeout: float = 10.0) -> None:
        self._stop.set()
        self._thread.join(timeout=timeout)
        self._pool.shutdown()
