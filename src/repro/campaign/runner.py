"""Campaign execution: cache-aware, sharded across worker processes.

``run_campaign(jobs, workers=N, store=...)`` resolves every job:

1. jobs whose key is already in the store are **cached** — no work;
2. the rest are grouped by source circuit (``job.group``) and the
   groups, biggest first, are fed to ``N`` persistent worker processes
   through a task queue, so all variants of one circuit land on one
   worker and share its synthesis / CSSG memo;
3. each finished job's result JSON flows back to the parent, which
   writes it to the store *as it arrives* — a campaign killed halfway
   resumes from exactly the jobs it had not finished;
4. a worker that dies (crash) or exceeds the per-job timeout is killed
   and replaced; the job in flight is marked ``crashed``/``timeout``,
   the unstarted remainder of its group is re-queued, and the campaign
   carries on.  A job that hangs is killed at that same timeout.

``workers=0`` runs everything in-process (no subprocess, no pickling),
which is what the table benchmarks use so their timings measure ATPG,
not orchestration.  Results are identical either way: every job is an
independent, seeded, deterministic computation.

:func:`run_job` is the one per-job path (the ``workers=0`` loop and
the forked worker both call it), and :meth:`_Pool.step` the one
parent-side message pump, stepped until every job is resolved.
"""

from __future__ import annotations

import os
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.campaign.plan import Job
from repro.campaign.store import ResultStore
from repro.circuit.netlist import Circuit
from repro.core.atpg import (
    RESULT_SCHEMA_VERSION,
    AtpgResult,
    cssg_for,
    resolve_cssg_method,
)
from repro.errors import ReproError
from repro.flow import Flow
from repro.obs import metrics as _obs

#: Default per-job wall-clock budget in worker mode.
DEFAULT_JOB_TIMEOUT = 600.0

#: Parent-side cadence: the longest the pump waits for a worker
#: message, and the interval between two policing sweeps.
POLL_SECONDS = 0.2

#: Outcome statuses that mean "the result payload is valid".
_OK_STATUSES = ("cached", "ran")


@dataclass
class JobOutcome:
    """How one job was resolved."""

    job: Job
    status: str  #: "cached" | "ran" | "failed" | "crashed" | "timeout"
    payload: Optional[Dict] = None  #: the result JSON when ok
    error: str = ""
    seconds: float = 0.0
    live: Optional[AtpgResult] = field(default=None, repr=False)
    #: Cohort reuse accounting when the job ran incrementally (the
    #: :meth:`~repro.campaign.cohort.IncrementalStats.to_json_dict`
    #: shape); ``None`` for plain runs and cache hits.
    incremental: Optional[Dict] = None
    #: The job's own metrics registry snapshot when a worker ran it with
    #: metrics enabled; ``None`` otherwise.
    metrics: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return self.status in _OK_STATUSES

    @property
    def executed(self) -> bool:
        """True when ATPG actually ran for this job (not a cache hit)."""
        return self.status == "ran"

    def result(self, circuit: Optional[Circuit] = None) -> AtpgResult:
        """The job's :class:`AtpgResult` — the live object when the job
        ran in-process, otherwise deserialized from the payload."""
        if self.live is not None:
            return self.live
        if self.payload is None:
            raise ReproError(f"job {self.job.name} has no result ({self.status})")
        if circuit is None:
            circuit = load_job_circuit(self.job)
        return AtpgResult.from_json_dict(self.payload, circuit)


@dataclass
class CampaignReport:
    """Everything one ``run_campaign`` call did."""

    jobs: List[Job]
    outcomes: List[JobOutcome]  #: in ``jobs`` order
    wall_seconds: float
    workers: int

    @property
    def by_key(self) -> Dict[str, JobOutcome]:
        return {o.job.key: o for o in self.outcomes}

    @property
    def n_cached(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cached")

    @property
    def n_ran(self) -> int:
        return sum(1 for o in self.outcomes if o.executed)

    @property
    def n_failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def all_ok(self) -> bool:
        return self.n_failed == 0

    def summary(self) -> str:
        return (
            f"{len(self.jobs)} jobs: {self.n_ran} ran, {self.n_cached} cached, "
            f"{self.n_failed} failed in {self.wall_seconds:.2f}s "
            f"({self.workers} workers)"
        )


def load_job_circuit(job: Job) -> Circuit:
    """Build the circuit a job runs on (synthesized or parsed)."""
    if job.source_kind == "benchmark":
        from repro.benchmarks_data import load_benchmark

        return load_benchmark(job.source, style=job.style)
    from repro.circuit.parser import load_netlist

    return load_netlist(job.source)


def _memoised_circuit(job: Job, cssg_memo: Optional[Dict]) -> Circuit:
    """The job's circuit, loaded once per job group through ``cssg_memo``
    (the group's jobs then share one parse or synthesis, and the walk
    kernels compiled on it), or freshly without a memo."""
    if cssg_memo is None:
        return load_job_circuit(job)
    key = ("circuit", job.group)
    circuit = cssg_memo.get(key)
    if circuit is None:
        circuit = cssg_memo[key] = load_job_circuit(job)
    return circuit


def execute_job(job: Job, cssg_memo: Optional[Dict] = None) -> AtpgResult:
    """Run one job through ``Flow.default()``, optionally sharing the
    loaded circuit and CSSG construction through ``cssg_memo`` (all
    fault-model / seed variants of one circuit use the same graph,
    exactly like the sequential table harness did)."""
    from repro.circuit.faults import fault_universe

    circuit = _memoised_circuit(job, cssg_memo)
    faults = fault_universe(circuit, job.options.fault_model)
    cssg = None
    if cssg_memo is not None:
        cssg = _memoised_cssg(circuit, job, len(faults), cssg_memo)
    return Flow.default().run(circuit, job.options, faults=faults, cssg=cssg)


def _memoised_cssg(
    circuit: Circuit,
    job: Job,
    n_faults: int,
    cssg_memo: Optional[Dict],
    store: Optional[ResultStore] = None,
    stats=None,
    refresh: bool = False,
):
    """The job's CSSG, by preference: batch memo → structural cache
    (only with a ``store``) → fresh construction, which then populates
    both.  The memo keys on the *resolved* method, so e.g. "auto" and
    the method it resolves to for this circuit share one construction;
    the cache key is the name-free structural fingerprint, so renames
    and logic-preserving rewrites reuse the graph outright.  ``refresh``
    skips the cache read; a cache hit sets ``stats.cssg_reused``.  A
    fresh construction is metered and traced as the flow's ``"cssg"``
    stage (:meth:`Flow.build_cssg`, over ``n_faults``); a memo or cache
    hit is not."""
    opts = job.options
    method = resolve_cssg_method(circuit, opts)
    memo_key = (job.group, opts.k, opts.max_input_changes, method)
    if cssg_memo is not None:
        cssg = cssg_memo.get(memo_key)
        if cssg is not None:
            return cssg
    cssg = None
    if store is not None:
        from repro.campaign import cohort as _cohort

        fingerprint = _cohort.cssg_fingerprint(
            circuit, opts.k, opts.max_input_changes, method
        )
        if not refresh:
            cssg = _cohort.cssg_from_doc(circuit, store.get_cssg(fingerprint))
        if cssg is not None:
            stats.cssg_reused = True
    if cssg is None:
        cssg = Flow.build_cssg(circuit, opts, n_faults, build=cssg_for)
        if store is not None:
            store.put_cssg(fingerprint, _cohort.cssg_to_doc(cssg))
    if cssg_memo is not None:
        cssg_memo[memo_key] = cssg
    return cssg


def execute_job_incremental(
    job: Job,
    store: Optional[ResultStore],
    cssg_memo: Optional[Dict] = None,
    refresh: bool = False,
):
    """Resolve one job through the per-cohort incremental cache.

    Returns ``(payload, live_result_or_None, stats_or_None)``:

    * every cohort cached → **pure merge**: the payload is reassembled
      from the partials by a replay-only flow run, without building a
      CSSG (``live_result`` is None);
    * some cohorts stale, or an empty fault universe (no cohorts, so
      nothing to merge from) → one :class:`~repro.flow.Flow` run over the
      full universe with a leading
      :class:`~repro.flow.stages.ReplayStage` injecting the cached
      verdicts, so the generating stages see only the stale faults;
      fresh partials are then stored for *every* cohort, as one pack,
      keeping all of a partition's partials on one producing run;
    * no store, or a deadline-bounded job (a budget abort would cache
      partial verdicts as if they were final — the documented
      "cohort hit impossible" case) → plain :func:`execute_job`,
      ``stats`` None.

    ``refresh`` skips all cache *reads* but still repopulates partials
    and the CSSG cache, restoring full-fidelity entries after a chain
    of approximate incremental reruns.
    """
    opts = job.options
    if store is None or opts.deadline_seconds is not None:
        result = execute_job(job, cssg_memo)
        return result.to_json_dict(), result, None

    from repro.campaign import cohort as _cohort
    from repro.circuit.faults import fault_universe

    t_start = time.perf_counter()
    circuit = _memoised_circuit(job, cssg_memo)
    universe = fault_universe(circuit, opts.fault_model)
    salt = _cohort.cohort_salt(circuit, job.style, opts)
    cohorts = _cohort.partition(circuit, universe, salt)
    stats = _cohort.IncrementalStats(cohorts_total=len(cohorts))

    cached: List[Optional[Dict]] = []
    for cohort in cohorts:
        doc = None if refresh else store.get_cohort(cohort.key)
        if doc is not None and not _cohort.validate_partial(
            circuit, cohort, doc
        ):
            doc = None
        cached.append(doc)
    reused = [
        (cohort, doc) for cohort, doc in zip(cohorts, cached) if doc is not None
    ]
    stale = [cohort for cohort, doc in zip(cohorts, cached) if doc is None]
    stats.cohorts_reused = len(reused)
    stats.cohorts_executed = len(stale)
    stats.faults_reused = sum(len(c.faults) for c, _ in reused)
    stats.faults_executed = sum(len(c.faults) for c in stale)

    if cohorts and not stale:
        # Pure merge: no CSSG, no generating stage.
        payload = _cohort.merge_payload(
            circuit,
            opts,
            universe,
            [cohort for cohort, _ in reused],
            [doc for _, doc in reused],
            cpu_seconds=time.perf_counter() - t_start,
        )
        return payload, None, stats

    cssg = _memoised_cssg(
        circuit, job, len(universe), cssg_memo, store, stats, refresh=refresh
    )
    from repro.flow.stages import ReplayStage

    plan = _cohort.build_replay_plan(
        [cohort for cohort, _ in reused], [doc for _, doc in reused]
    )
    flow = Flow([ReplayStage(plan)] + list(Flow.default().stages))
    result = flow.run(circuit, opts, faults=list(universe), cssg=cssg)
    payload = result.to_json_dict()
    # Re-extract *every* cohort from this run's payload, not just the
    # stale ones: reused partials get re-normalized onto this producing
    # run, so all partials of a partition always reference one run and
    # a later merge reassembles this payload position-exactly.  The
    # whole partition is one pack, so this is one store write.
    if cohorts:
        partials = _cohort.extract_partials(circuit, payload, cohorts, job.key)
        store.put_cohort(job.key, partials)
    return payload, result, stats


def note_incremental_stats(doc: Optional[Dict]) -> None:
    """Fold one incremental execution's cohort accounting (a
    :attr:`JobOutcome.incremental` dict) into the ambient metrics
    registry — call exactly once per job, parent-side, never inside a
    worker, whose metrics snapshot the parent merges too.  ``None`` is
    a no-op."""
    if doc is None or not _obs.enabled():
        return
    counter = _obs.get_registry().counter(
        "repro_incremental_cohorts_total",
        "Fault cohorts planned/reused/executed by incremental re-ATPG.",
        ("outcome",),
    )
    counter.labels("planned").inc(doc.get("cohorts_total", 0))
    counter.labels("reused").inc(doc.get("cohorts_reused", 0))
    counter.labels("executed").inc(doc.get("cohorts_executed", 0))


def run_job(
    job: Job,
    store: Optional[ResultStore],
    cssg_memo: Optional[Dict] = None,
    refresh: bool = False,
) -> JobOutcome:
    """Run one job — through the per-cohort cache when ``store`` is
    given, plainly otherwise (see :func:`execute_job_incremental`) — as
    a ``ran`` or ``failed`` outcome.  Cohort stats ride on the outcome
    for the parent's :func:`note_incremental_stats`."""
    t0 = time.perf_counter()
    try:
        payload, live, inc = execute_job_incremental(
            job, store, cssg_memo, refresh=refresh
        )
    except Exception as exc:  # report; the caller carries on
        return JobOutcome(
            job,
            "failed",
            error=f"{type(exc).__name__}: {exc}",
            seconds=time.perf_counter() - t0,
        )
    return JobOutcome(
        job,
        "ran",
        payload=payload,
        seconds=time.perf_counter() - t0,
        live=live,
        incremental=None if inc is None else inc.to_json_dict(),
    )


def _fresh_payload(store: Optional[ResultStore], job: Job) -> Optional[Dict]:
    """The cached payload for ``job``, if present and schema-compatible."""
    if store is None:
        return None
    payload = store.get(job.key)
    if payload is None or payload.get("schema_version") != RESULT_SCHEMA_VERSION:
        return None
    return payload


def _incremental_store(incremental: bool, cache_root) -> Optional[ResultStore]:
    """The store incremental jobs resolve cohorts through, opened the
    same way in-process and in every worker.  ``track_stats``: cohort
    and CSSG lookups are the incremental layer's whole point, and their
    hit/miss ledger (capped ``stats.log``) is what ``repro-cache stats``
    reports."""
    if not incremental or cache_root is None:
        return None
    return ResultStore(cache_root, track_stats=True)


def _worker_main(
    wid: int,
    task_q,
    event_q,
    collect_telemetry: bool = False,
    incremental: bool = False,
    cache_root: Optional[str] = None,
    refresh: bool = False,
) -> None:
    """Worker loop: run dispatched job batches until the ``None``
    sentinel.  A batch is one source circuit's group (or the remainder
    of one), processed strictly in order — the parent relies on that
    order to attribute a crash or timeout to the first job it has no
    completion event for.  One CSSG memo spans the batch, so all
    fault-model / seed variants share a single construction.

    With ``collect_telemetry`` the worker arms a **fresh metrics
    registry per job** and sends its snapshot as the ``done`` message's
    last element, so per-job metrics reach the parent's campaign-wide
    registry exactly once.

    With ``incremental`` (and a ``cache_root``), jobs resolve through
    :func:`execute_job_incremental` against a worker-local
    :class:`ResultStore`; the cohort-reuse stats ride the ``done``
    message too, so the *parent* folds them into its registry exactly
    once."""
    inc_store = _incremental_store(incremental, cache_root)
    while True:
        item = task_q.get()
        if item is None:
            break
        batch_id, jobs = item
        cssg_memo: Dict = {}
        for job in jobs:
            if collect_telemetry:
                _obs.enable(_obs.MetricsRegistry())
            outcome = run_job(job, inc_store, cssg_memo, refresh=refresh)
            if outcome.ok:
                metrics = (
                    _obs.get_registry().snapshot() if collect_telemetry else None
                )
                event_q.put(
                    ("done", wid, job.key, outcome.seconds, outcome.payload,
                     outcome.incremental, metrics)
                )
            else:
                event_q.put(
                    ("fail", wid, job.key, outcome.seconds, outcome.error)
                )
        event_q.put(("batch-done", wid, batch_id, 0.0))


def _mp_context():
    import multiprocessing  # only a worker pool pays for it

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context()


class _Pool:
    """Parent-side dispatcher: one job *batch* in flight per worker.

    Each worker has a private task queue and receives whole groups (all
    variants of one source circuit) in one message — jobs are only
    milliseconds each, so per-job round trips would drown the pool in
    dispatch latency.  The parent records every batch it hands out and
    workers process batches strictly in order, so when a worker dies or
    goes past the per-job timeout, the first batch job without a
    completion event *is* the culprit: it gets the ``crashed`` /
    ``timeout`` outcome, the rest of the batch is re-queued first in
    line, and a replacement worker is spawned.  Nothing about failure
    handling depends on event delivery from a crashing process.

    One clock governs a busy worker: ``timeout``, measured since its
    last completion event (the hard per-job budget).

    :meth:`step` is the one message pump: after :meth:`start`, the
    campaign steps until :attr:`unresolved` empties."""

    def __init__(
        self,
        pending: List[Job],
        workers: int,
        timeout: float,
        collect_telemetry: bool = False,
        incremental: bool = False,
        cache_root: Optional[str] = None,
        refresh: bool = False,
    ):
        if workers < 1:
            raise ReproError(f"a worker pool needs >= 1 worker, got {workers}")
        self.ctx = _mp_context()
        self.event_q = self.ctx.Queue()
        self.timeout = timeout
        self.collect_telemetry = collect_telemetry
        self.incremental = incremental
        self.cache_root = cache_root
        self.refresh = refresh
        self.job_of = {j.key: j for j in pending}
        #: keys of handed-in jobs that have no outcome yet.
        self.unresolved = set(self.job_of)
        self.last_police = time.monotonic()
        self.target_workers = workers
        self.next_wid = 0
        self.next_batch_id = 0
        self.procs: Dict[int, object] = {}
        self.task_qs: Dict[int, object] = {}
        #: jobs of the worker's current batch with no completion event
        #: yet, in the order the worker runs them.
        self.worker_remaining: Dict[int, List[Job]] = {}
        self.worker_last_event: Dict[int, float] = {}

        groups: Dict[str, List[Job]] = {}
        for job in pending:
            groups.setdefault(job.group, []).append(job)
        # Biggest sources first: the long pole starts immediately.
        self.group_queue: List[List[Job]] = sorted(
            groups.values(),
            key=lambda js: (-sum(j.cost_hint for j in js), js[0].key),
        )

    def start(self) -> None:
        """Spawn the worker processes and hand each its first batch."""
        for _ in range(self.target_workers):
            self.spawn()
        self.dispatch_all()

    def spawn(self) -> None:
        wid = self.next_wid
        self.next_wid += 1
        task_q = self.ctx.Queue()
        proc = self.ctx.Process(
            target=_worker_main,
            args=(
                wid, task_q, self.event_q,
                self.collect_telemetry, self.incremental,
                self.cache_root, self.refresh,
            ),
            daemon=True,
        )
        proc.start()
        self.procs[wid] = proc
        self.task_qs[wid] = task_q
        self.worker_remaining[wid] = []

    def dispatch(self, wid: int) -> None:
        """Hand the worker the next queued group, if it is idle."""
        if self.worker_remaining[wid] or not self.group_queue:
            return
        batch = self.group_queue.pop(0)
        batch_id = self.next_batch_id
        self.next_batch_id += 1
        self.worker_remaining[wid] = list(batch)
        self.worker_last_event[wid] = time.monotonic()
        self.task_qs[wid].put((batch_id, batch))

    def dispatch_all(self) -> None:
        for wid in list(self.procs):
            self.dispatch(wid)

    def note_event(self, wid: int, key: Optional[str]) -> None:
        """Record a completion event: the job is no longer in flight."""
        self.worker_last_event[wid] = time.monotonic()
        if key is not None:
            self.worker_remaining[wid] = [
                j for j in self.worker_remaining[wid] if j.key != key
            ]

    def drop_worker(self, wid: int, kill: bool) -> List[Job]:
        """Remove a worker; returns its unfinished batch jobs in order
        (the first is the one that was in flight)."""
        proc = self.procs.pop(wid)
        if kill and proc.is_alive():
            proc.terminate()
        proc.join(timeout=5)
        self.task_qs.pop(wid)
        self.worker_last_event.pop(wid, None)
        return self.worker_remaining.pop(wid)

    def requeue_first(self, jobs: List[Job]) -> None:
        if jobs:
            self.group_queue.insert(0, jobs)

    def step(self, resolve: Callable[[JobOutcome], None]) -> None:
        """Pump one worker message, waiting at most
        :data:`POLL_SECONDS`, and police the workers on that cadence.

        Every terminal outcome goes to ``resolve`` exactly once: ``ran``
        / ``failed`` from the worker's ``done`` / ``fail`` message,
        ``crashed`` / ``timeout`` from policing."""
        try:
            event = self.event_q.get(timeout=POLL_SECONDS)
        except queue_mod.Empty:
            event = None
        # Police on a wall-clock cadence, not only on queue-empty: with
        # many fast jobs the event stream never pauses, which would let
        # a dead or stuck worker go unnoticed for the whole campaign.
        if time.monotonic() - self.last_police >= POLL_SECONDS:
            self.police(resolve)
            self.dispatch_all()
            self.last_police = time.monotonic()
        if event is None:
            return
        kind, wid, key, seconds = event[0], event[1], event[2], event[3]
        if kind == "batch-done":
            if wid in self.procs:
                self.note_event(wid, None)
                self.dispatch(wid)
            return
        if wid in self.procs:
            self.note_event(wid, key)
        if key not in self.unresolved:
            return
        self.unresolved.discard(key)
        job = self.job_of[key]
        if kind == "done":
            resolve(
                JobOutcome(
                    job, "ran", payload=event[4], seconds=seconds,
                    incremental=event[5], metrics=event[6],
                )
            )
        else:
            resolve(JobOutcome(job, "failed", error=event[4], seconds=seconds))

    def police(self, resolve: Callable[[JobOutcome], None]) -> None:
        """Detect dead and over-deadline workers and replace them.  The
        ``timeout`` clock runs from the worker's last completion event."""
        now = time.monotonic()
        for wid in list(self.procs):
            proc = self.procs[wid]
            busy = bool(self.worker_remaining.get(wid))
            timed_out = (
                busy and now - self.worker_last_event.get(wid, 0.0) > self.timeout
            )
            if proc.is_alive() and not timed_out:
                continue
            status = "timeout" if proc.is_alive() else "crashed"
            leftovers = self.drop_worker(wid, kill=True)
            if leftovers:
                # In-order processing: the first job without a completion
                # event is the one that was running when the worker died.
                culprit, rest = leftovers[0], leftovers[1:]
                if culprit.key in self.unresolved:
                    self.unresolved.discard(culprit.key)
                    if status == "timeout":
                        message = f"exceeded per-job timeout ({self.timeout:.0f}s)"
                    else:
                        message = "worker process died"
                    resolve(JobOutcome(culprit, status, error=message))
                self.requeue_first(rest)
            if self.unresolved and len(self.procs) < self.target_workers:
                self.spawn()
                if _obs.enabled():
                    _obs.get_registry().counter(
                        "repro_campaign_worker_respawns_total",
                        "Workers replaced after dying or timing out.",
                        ("reason",),
                    ).labels(status).inc()

    def shutdown(self) -> None:
        for wid, proc in list(self.procs.items()):
            if proc.is_alive():
                self.task_qs[wid].put(None)
        deadline = time.monotonic() + 10
        for proc in self.procs.values():
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for q in [self.event_q] + list(self.task_qs.values()):
            q.cancel_join_thread()
            q.close()


def run_campaign(
    jobs: Sequence[Job],
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
    timeout: float = DEFAULT_JOB_TIMEOUT,
    progress: Optional[Callable[[JobOutcome, int, int], None]] = None,
    refresh: bool = False,
    incremental: bool = False,
) -> CampaignReport:
    """Resolve every job: from the cache when possible, else by running
    it.  ``workers=0`` executes in-process; ``workers=None`` uses the
    machine's CPU count.  ``store=None`` disables caching entirely;
    ``refresh=True`` bypasses cache reads but still stores fresh
    results (existing entries are only ever overwritten, never deleted,
    so an interrupted refresh loses nothing).  ``timeout`` is the hard
    budget a worker job may spend on one result (seconds, > 0; ``inf``
    never fires); past it the worker is killed and the job resolves as
    ``timeout``.

    With metrics enabled (:func:`repro.obs.metrics.enabled`) when it is
    called, the ambient registry becomes the campaign-wide aggregate:
    workers record into per-job registries whose snapshots are merged
    in as results arrive.  Payloads never depend on it.

    ``incremental`` resolves jobs that miss the whole-result cache
    through :func:`execute_job_incremental`: per-fault-cohort partials
    and a structurally-fingerprinted CSSG cache turn an edit-rerun into
    O(changed logic).  Requires a ``store``; deadline-bounded jobs fall
    back to plain execution (see docs/incremental.md)."""
    jobs = list(jobs)
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ReproError(f"workers must be >= 0, got {workers}")
    if not timeout > 0:  # NaN too: no job would outlive the first sweep
        raise ReproError(f"timeout must be > 0 seconds, got {timeout}")
    start = time.perf_counter()
    outcomes: Dict[str, JobOutcome] = {}
    n_total = len(jobs)

    def resolve(outcome: JobOutcome) -> None:
        outcomes[outcome.job.key] = outcome
        note_incremental_stats(outcome.incremental)
        if outcome.executed and store is not None and outcome.payload:
            store.put(outcome.job.key, outcome.payload)
        if _obs.enabled():
            reg = _obs.get_registry()
            if outcome.metrics:  # a worker job's, merged exactly once
                reg.merge_snapshot(outcome.metrics)
            reg.counter(
                "repro_campaign_jobs_total",
                "Campaign jobs resolved, by outcome status.",
                ("status",),
            ).labels(outcome.status).inc()
        if progress is not None:
            progress(outcome, len(outcomes), n_total)

    pending: List[Job] = []
    for job in jobs:
        payload = None if refresh else _fresh_payload(store, job)
        if payload is not None:
            resolve(JobOutcome(job, "cached", payload=payload))
        else:
            pending.append(job)

    if workers == 0:
        job_store = _incremental_store(
            incremental, None if store is None else store.root
        )
        cssg_memo: Dict = {}
        last_group: Optional[str] = None
        for job in pending:
            if job.group != last_group:  # bound memory to one circuit
                cssg_memo = {}
                last_group = job.group
            resolve(run_job(job, job_store, cssg_memo, refresh=refresh))
    elif pending:
        pool = _Pool(
            pending, min(workers, len(pending)), timeout, _obs.enabled(),
            incremental=incremental and store is not None,
            cache_root=str(store.root) if store is not None else None,
            refresh=refresh,
        )
        try:
            pool.start()
            while pool.unresolved:
                pool.step(resolve)
        finally:
            pool.shutdown()

    return CampaignReport(
        jobs=jobs,
        outcomes=[outcomes[j.key] for j in jobs],
        wall_seconds=time.perf_counter() - start,
        workers=workers,
    )
