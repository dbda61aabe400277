"""``repro-serve``: the long-lived ATPG-as-a-service daemon.

One asyncio process owns the HTTP API, the job table, the shared
content-addressed result store, and an execution back end (persistent
fork workers by default, in-process threads with ``--workers 0``).  The
API surface (see ``docs/serving.md`` for the worked session):

* ``POST /jobs`` — submit a netlist / benchmark (or a whole campaign
  spec); answers ``200`` from the warm cache, ``202`` when queued,
  ``429`` under QoS pressure, ``503`` while draining;
* ``GET /jobs`` / ``GET /jobs/{id}`` — job table / one record;
* ``GET /jobs/{id}/events`` — the run's flow events, replayed from any
  offset and live-tailed (NDJSON; ``?sse=1`` for Server-Sent Events);
* ``POST /jobs/{id}/cancel`` — cancel a still-queued job;
* ``GET /results/{key}`` — the content-addressed result payload;
* ``GET /metrics`` — Prometheus text exposition of the server registry;
* ``GET /healthz`` — liveness + job-table summary.

Identical submissions cost zero twice over: a key already in the store
is answered immediately (``cached``), and a key currently in flight is
*coalesced* — the follower record shares the primary's event log and
resolves with it.  Graceful shutdown stops admissions, drains running
jobs, and persists the still-queued remainder to
``<state_dir>/queue.json``; the next start re-submits it.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

from repro.campaign.plan import Job
from repro.campaign.runner import _fresh_payload
from repro.campaign.store import ResultStore
from repro.cli import exits_on_broken_pipe, non_negative
from repro.errors import ReproError
from repro.obs import metrics as _obs
from repro.obs.export import atomic_write_text, to_prometheus_text
from repro.serve.executor import ForkedExecutor, InlineExecutor
from repro.serve.jobs import (
    EventLog,
    JobRecord,
    parse_campaign_submission,
    parse_submission,
)
from repro.serve.protocol import (
    HttpError,
    Request,
    Response,
    Router,
    serve_connection,
)
from repro.serve.qos import QosPolicy

__all__ = ["ReproServer", "serve_main"]


class ReproServer:
    """The service: job table + queue + executor + HTTP front end."""

    def __init__(
        self,
        state_dir,
        store: Optional[ResultStore] = None,
        workers: int = 2,
        qos: Optional[QosPolicy] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        job_timeout: float = 600.0,
        hang_timeout: Optional[float] = None,
        incremental: bool = False,
    ):
        self.state_dir = Path(state_dir)
        self.store = store
        self.workers = workers
        #: resolve cache misses through the per-cohort incremental
        #: layer (requires a store; see docs/incremental.md).
        self.incremental = incremental and store is not None
        self.qos = qos if qos is not None else QosPolicy()
        self.host = host
        self.port = port
        self.job_timeout = job_timeout
        self.hang_timeout = hang_timeout

        self._spool_dir = self.state_dir / "netlists"
        self._queue_file = self.state_dir / "queue.json"
        self._records: Dict[str, JobRecord] = {}
        self._active_by_key: Dict[str, str] = {}  #: key -> primary record id
        self._followers: Dict[str, List[str]] = {}  #: primary id -> follower ids
        self._ready: Deque[JobRecord] = deque()  #: queued, not yet dispatched
        self._n_dispatched = 0
        self._n_executed = 0  #: jobs that actually ran (not cached/coalesced)
        self._next_id = 1
        self._paused = False
        self._draining = False
        self._started_at = time.time()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor = None
        self._router = self._build_router()

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind, restore the persisted queue, and begin serving.
        Returns the bound ``(host, port)`` (port 0 resolves here)."""
        self._loop = asyncio.get_running_loop()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        if not _obs.enabled():
            _obs.enable(_obs.MetricsRegistry())
        if self.workers == 0:
            self._executor = InlineExecutor(
                self._cb_start, self._cb_event, self._cb_done,
                store=self.store, incremental=self.incremental,
            )
        else:
            self._executor = ForkedExecutor(
                self.workers,
                self._cb_start,
                self._cb_event,
                self._cb_done,
                timeout=self.job_timeout,
                hang_timeout=self.hang_timeout,
                incremental=self.incremental,
                cache_root=(
                    str(self.store.root) if self.store is not None else None
                ),
            )
        self._restore_queue()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    def begin_drain(self) -> None:
        """Phase one of shutdown: refuse new submissions (503) while
        status, event streams, and results stay served."""
        self._draining = True

    async def shutdown(self, drain: bool = True, drain_timeout: float = 30.0) -> None:
        """Stop admissions, optionally drain running jobs, persist the
        queued remainder, and release everything.  The listener stays
        open through the drain so clients can follow their jobs to
        resolution; it closes before the queue is persisted."""
        self.begin_drain()
        self._paused = True
        if drain:
            deadline = self._loop.time() + drain_timeout
            while self._n_dispatched > 0 and self._loop.time() < deadline:
                await asyncio.sleep(0.05)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._persist_queue()
        for record in self._records.values():
            if not record.events.closed:
                record.events.close()
        if self._executor is not None:
            await self._loop.run_in_executor(None, self._executor.shutdown)
            self._executor = None
        _obs.disable()

    def pause(self) -> None:
        """Hold queued jobs (dispatch nothing) until :meth:`resume` —
        used by graceful shutdown and by tests that need a determinate
        queue."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False
        self._pump()

    # -- queue persistence --------------------------------------------

    def _persist_queue(self) -> None:
        entries = [
            {"id": r.id, "client": r.client, "submission": r.submission}
            for r in self._records.values()
            if r.active
        ]
        doc = {"version": 1, "jobs": entries}
        atomic_write_text(str(self._queue_file), json.dumps(doc, indent=2) + "\n")

    def _restore_queue(self) -> None:
        try:
            doc = json.loads(self._queue_file.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        for entry in doc.get("jobs", ()):
            try:
                job, canonical = parse_submission(
                    dict(entry.get("submission") or {}),
                    self._spool_dir,
                    self.qos.effective_deadline,
                )
                self._admit(
                    job, canonical, str(entry.get("client", "")),
                    refresh=False, enforce_qos=False,
                    record_id=entry.get("id"),
                )
            except (HttpError, ReproError):
                continue  # a stale entry must not block startup
        try:
            self._queue_file.unlink()
        except OSError:
            pass

    # -- submission / resolution --------------------------------------

    def _new_record_id(self, wanted: Optional[str] = None) -> str:
        if wanted and wanted not in self._records:
            return str(wanted)
        while True:
            rid = f"j{self._next_id:06d}"
            self._next_id += 1
            if rid not in self._records:
                return rid

    def _register(self, record: JobRecord) -> None:
        self._records[record.id] = record

    def _n_active(self) -> int:
        return sum(
            1 for r in self._records.values() if r.active and r.primary_id is None
        )

    def _n_client_active(self, client: str) -> int:
        return sum(
            1
            for r in self._records.values()
            if r.active and r.primary_id is None and r.client == client
        )

    def _count_job(self, mode: str) -> None:
        if _obs.enabled():
            _obs.get_registry().counter(
                "repro_serve_jobs_total",
                "Service jobs resolved, by mode.",
                ("mode",),
            ).labels(mode).inc()

    def _admit(
        self,
        job: Job,
        canonical: Dict,
        client: str,
        refresh: bool,
        enforce_qos: bool = True,
        record_id: Optional[str] = None,
    ) -> Tuple[JobRecord, int]:
        """One planned job -> a record: warm-cache answer, coalesced
        follower, or queued work (in that order of preference)."""
        if not refresh:
            payload = _fresh_payload(self.store, job)
            if payload is not None:
                record = JobRecord(
                    id=self._new_record_id(record_id),
                    job=job,
                    submission=canonical,
                    client=client,
                    events=EventLog(self._loop),
                    state="cached",
                    finished_at=time.time(),
                    payload=payload,
                )
                record.events.append(self._resolved_doc(record))
                record.events.close()
                self._register(record)
                self._count_job("cached")
                return record, 200
        primary_id = self._active_by_key.get(job.key)
        if primary_id is not None:
            primary = self._records[primary_id]
            record = JobRecord(
                id=self._new_record_id(record_id),
                job=job,
                submission=canonical,
                client=client,
                events=primary.events,  # live stream is shared
                primary_id=primary_id,
            )
            self._register(record)
            self._followers.setdefault(primary_id, []).append(record.id)
            return record, 202
        if enforce_qos:
            reason = self.qos.admit(self._n_active(), self._n_client_active(client))
            if reason is not None:
                self._count_job("rejected")
                raise HttpError(
                    429, reason,
                    {"Retry-After": str(self.qos.retry_after_seconds)},
                )
        record = JobRecord(
            id=self._new_record_id(record_id),
            job=job,
            submission=canonical,
            client=client,
            events=EventLog(self._loop),
        )
        self._register(record)
        self._active_by_key[job.key] = record.id
        self._ready.append(record)
        self._pump()
        return record, 202

    def _pump(self) -> None:
        """Feed the executor while it has worker capacity.  Dispatch is
        gated server-side so ``queued`` records stay cancellable and
        graceful shutdown can hold the queue back."""
        capacity = max(1, self.workers)
        while (
            self._ready
            and not self._paused
            and self._n_dispatched < capacity
        ):
            record = self._ready.popleft()
            if record.state != "queued":
                continue  # cancelled while waiting
            self._n_dispatched += 1
            self._executor.submit(record.job)

    # executor callbacks (worker threads) -> loop-marshalled handlers

    def _cb_start(self, key: str) -> None:
        self._loop.call_soon_threadsafe(self._on_start, key)

    def _cb_event(self, key: str, doc: Dict) -> None:
        self._loop.call_soon_threadsafe(self._on_event, key, doc)

    def _cb_done(
        self, key: str, status: str, payload: Optional[Dict],
        error: str, seconds: float,
    ) -> None:
        self._loop.call_soon_threadsafe(
            self._on_done, key, status, payload, error, seconds
        )

    def _primary_record(self, key: str) -> Optional[JobRecord]:
        rid = self._active_by_key.get(key)
        return self._records.get(rid) if rid is not None else None

    def _on_start(self, key: str) -> None:
        record = self._primary_record(key)
        if record is not None and record.state == "queued":
            record.state = "running"
            record.started_at = time.time()

    def _on_event(self, key: str, doc: Dict) -> None:
        record = self._primary_record(key)
        if record is not None:
            record.events.append(doc)

    def _resolved_doc(self, record: JobRecord) -> Dict:
        """The synthetic terminal event every stream ends with."""
        return {
            "event": "JobResolved",
            "stage": "",
            "job_id": record.id,
            "state": record.state,
            "key": record.job.key,
            "seconds": round(record.seconds, 6),
            "error": record.error,
        }

    def _on_done(
        self, key: str, status: str, payload: Optional[Dict],
        error: str, seconds: float,
    ) -> None:
        record = self._primary_record(key)
        self._active_by_key.pop(key, None)
        self._n_dispatched = max(0, self._n_dispatched - 1)
        if record is not None:
            record.state = status
            record.error = error
            record.seconds = seconds
            record.finished_at = time.time()
            if record.started_at is None:
                record.started_at = record.finished_at
            if status == "done":
                record.payload = payload
                self._n_executed += 1
                if self.store is not None and payload is not None:
                    self.store.put(key, payload)
            self._count_job("ran" if status == "done" else status)
            if _obs.enabled():
                _obs.get_registry().histogram(
                    "repro_serve_job_seconds",
                    "Wall seconds per executed service job.",
                ).observe(seconds)
            record.events.append(self._resolved_doc(record))
            record.events.close()
            for fid in self._followers.pop(record.id, ()):
                follower = self._records.get(fid)
                if follower is None:
                    continue
                follower.state = "coalesced" if status == "done" else status
                follower.error = error
                follower.finished_at = record.finished_at
                self._count_job(
                    "coalesced" if status == "done" else status
                )
        self._pump()

    # -- HTTP ----------------------------------------------------------

    def _build_router(self) -> Router:
        router = Router()
        router.add("GET", "/healthz", self._handle_healthz)
        router.add("GET", "/metrics", self._handle_metrics)
        router.add("POST", "/jobs", self._handle_submit)
        router.add("GET", "/jobs", self._handle_list)
        router.add("GET", "/jobs/{id}", self._handle_job)
        router.add("POST", "/jobs/{id}/cancel", self._handle_cancel)
        router.add("GET", "/jobs/{id}/events", self._handle_events)
        router.add("GET", "/results/{key}", self._handle_result)
        return router

    async def _handle_connection(self, reader, writer) -> None:
        await serve_connection(
            reader, writer, self._router,
            max_body_bytes=self.qos.max_body_bytes,
            observe=self._observe_request,
        )

    def _observe_request(self, request: Request, status: int) -> None:
        if not _obs.enabled():
            return
        route = "/" + (request.path.strip("/").split("/", 1)[0] or "")
        _obs.get_registry().counter(
            "repro_serve_requests_total",
            "HTTP requests served, by top-level route and status code.",
            ("route", "code"),
        ).labels(route, str(status)).inc()

    def _record_or_404(self, record_id: str) -> JobRecord:
        record = self._records.get(record_id)
        if record is None:
            raise HttpError(404, f"no such job: {record_id!r}")
        return record

    async def _handle_healthz(self, request: Request) -> Response:
        states: Dict[str, int] = {}
        for record in self._records.values():
            states[record.state] = states.get(record.state, 0) + 1
        return Response({
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "workers": self.workers,
            "jobs": states,
            "queued": len(self._ready),
            "dispatched": self._n_dispatched,
            "executed_total": self._n_executed,
            "paused": self._paused,
        })

    async def _handle_metrics(self, request: Request) -> Response:
        if not _obs.enabled():
            raise HttpError(503, "metrics registry is not armed")
        self._scrape_store_stats()
        return Response(
            to_prometheus_text(_obs.get_registry()),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def _scrape_store_stats(self) -> None:
        """Refresh the store-lifetime cache gauges from ``stats.log`` at
        scrape time.  Gauges, not counters: the log outlives this
        process (and is shared with CLI campaigns), so the exposition
        mirrors the store's cumulative ledger instead of re-counting."""
        if self.store is None or not _obs.enabled():
            return
        try:
            stats = self.store.stats()
        except OSError:
            return
        reg = _obs.get_registry()
        lookups = reg.gauge(
            "repro_cache_lookups",
            "Store-lifetime cache lookups from stats.log, by entry "
            "class and outcome.",
            ("entry_class", "outcome"),
        )
        ratio = reg.gauge(
            "repro_cache_hit_ratio",
            "Store-lifetime cache hit ratio per entry class "
            "(absent lookups read as 0).",
            ("entry_class",),
        )
        for entry_class, shape in stats["classes"].items():
            counts = shape["lookups"]
            lookups.labels(entry_class, "hit").set(counts["hits"])
            lookups.labels(entry_class, "miss").set(counts["misses"])
            ratio.labels(entry_class).set(counts["hit_rate"] or 0.0)

    async def _handle_submit(self, request: Request) -> Response:
        if self._draining:
            raise HttpError(503, "server is draining; resubmit elsewhere")
        body = request.json()
        client = str(
            body.get("client")
            or request.headers.get("x-repro-client", "")
            or "anonymous"
        )
        refresh = bool(body.get("refresh", False))
        if "campaign" in body:
            jobs, submissions = parse_campaign_submission(
                body, self.qos.effective_deadline
            )
            records = []
            code = 200
            for job, canonical in zip(jobs, submissions):
                record, one_code = self._admit(job, canonical, client, refresh)
                records.append(record.to_json_dict())
                code = max(code, one_code)
            return Response({"jobs": records}, status=code)
        job, canonical = parse_submission(
            body, self._spool_dir, self.qos.effective_deadline
        )
        record, code = self._admit(job, canonical, client, refresh)
        return Response({"job": record.to_json_dict()}, status=code)

    async def _handle_list(self, request: Request) -> Response:
        state = request.query.get("state")
        client = request.query.get("client")
        records = [
            r.to_json_dict()
            for r in self._records.values()
            if (state is None or r.state == state)
            and (client is None or r.client == client)
        ]
        return Response({"jobs": records, "n": len(records)})

    async def _handle_job(self, request: Request) -> Response:
        record = self._record_or_404(request.params["id"])
        return Response({"job": record.to_json_dict(verbose=True)})

    async def _handle_cancel(self, request: Request) -> Response:
        record = self._record_or_404(request.params["id"])
        if (
            record.state != "queued"
            or record.primary_id is not None
            or record not in self._ready
        ):
            raise HttpError(
                409, f"job {record.id} is {record.state}; only jobs still "
                "queued server-side can be cancelled"
            )
        record.state = "cancelled"
        record.finished_at = time.time()
        self._active_by_key.pop(record.job.key, None)
        record.events.append(self._resolved_doc(record))
        record.events.close()
        self._count_job("cancelled")
        return Response({"job": record.to_json_dict()})

    async def _handle_events(self, request: Request) -> Response:
        record = self._record_or_404(request.params["id"])
        try:
            start = int(request.query.get("from", "0") or 0)
        except ValueError:
            raise HttpError(400, "from must be an integer event index")
        sse = (
            request.query.get("sse") == "1"
            or "text/event-stream" in request.headers.get("accept", "")
        )

        async def generate():
            async for seq, doc in record.events.stream(start):
                line = json.dumps(
                    {"seq": seq, **doc}, separators=(",", ":")
                )
                yield f"data: {line}\n\n" if sse else line + "\n"

        return Response(
            stream=generate(),
            content_type=(
                "text/event-stream" if sse else "application/x-ndjson"
            ),
        )

    async def _handle_result(self, request: Request) -> Response:
        key = request.params["key"]
        payload = self.store.get(key) if self.store is not None else None
        if payload is None:
            for record in self._records.values():
                if record.job.key == key and record.payload is not None:
                    payload = record.payload
                    break
        if payload is None:
            raise HttpError(404, f"no result stored under {key!r}")
        return Response(payload)


# ---------------------------------------------------------------------------
# repro-serve CLI
# ---------------------------------------------------------------------------


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Long-lived ATPG service: HTTP/JSON job submission, live "
            "event streaming, and a shared warm result cache."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8765,
        help="TCP port (0 = pick a free one and print it)",
    )
    parser.add_argument(
        "--workers", type=non_negative(int), default=2,
        help="persistent fork workers (0 = in-process threads)",
    )
    parser.add_argument(
        "--state-dir", default=None,
        help=(
            "queue persistence + netlist spool directory "
            "(default: <cache dir>/serve)"
        ),
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="shared result cache (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="serve without the shared warm cache",
    )
    parser.add_argument(
        "--incremental", action="store_true",
        help=(
            "resolve cache misses through the per-cohort incremental "
            "layer: unchanged fault cohorts replay from cached partials "
            "and only stale ones re-run (needs the cache; "
            "see docs/incremental.md)"
        ),
    )
    parser.add_argument(
        "--max-queue", type=int, default=64,
        help="active-job ceiling before submissions get 429",
    )
    parser.add_argument(
        "--per-client", type=int, default=16,
        help="active-job ceiling per client id",
    )
    parser.add_argument(
        "--max-deadline", type=non_negative(float), default=None, metavar="SECONDS",
        help="clamp every job's deadline_seconds to this ceiling",
    )
    parser.add_argument(
        "--default-deadline", type=non_negative(float), default=None, metavar="SECONDS",
        help="deadline applied to jobs that request none",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="hard per-job budget enforced on fork workers",
    )
    parser.add_argument(
        "--hang-timeout", type=float, default=None,
        help="kill a fork worker silent this long (presumed hung)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to wait for running jobs at shutdown",
    )
    return parser


async def _amain(args) -> int:
    from repro.campaign.store import default_cache_dir

    state_dir = Path(
        args.state_dir
        if args.state_dir is not None
        else default_cache_dir() / "serve"
    )
    if args.incremental and args.no_cache:
        print(
            "repro-serve: --incremental needs the cache; "
            "drop --no-cache or --incremental",
            file=sys.stderr,
        )
        return 2
    store = None if args.no_cache else ResultStore(
        args.cache_dir, track_stats=True
    )
    server = ReproServer(
        state_dir=state_dir,
        store=store,
        workers=args.workers,
        qos=QosPolicy(
            max_queue=args.max_queue,
            per_client=args.per_client,
            max_deadline_seconds=args.max_deadline,
            default_deadline_seconds=args.default_deadline,
        ),
        host=args.host,
        port=args.port,
        job_timeout=args.timeout,
        hang_timeout=args.hang_timeout,
        incremental=args.incremental,
    )
    host, port = await server.start()
    print(f"repro-serve listening on http://{host}:{port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # platforms without signal support in the loop
    await stop.wait()
    print("repro-serve: draining and persisting queue...", flush=True)
    await server.shutdown(drain=True, drain_timeout=args.drain_timeout)
    print("repro-serve: bye", flush=True)
    return 0


@exits_on_broken_pipe
def serve_main(argv=None) -> int:
    args = build_serve_parser().parse_args(argv)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(serve_main())
