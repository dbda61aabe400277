"""Service job model: submissions, records, and buffered event logs.

A submission body (``POST /jobs``) names a circuit — a bundled
benchmark, a server-side netlist path, or inline netlist text (spooled
to the state directory so it gets a real file the campaign planner can
fingerprint) — plus any :class:`~repro.core.atpg.AtpgOptions` fields.
:func:`parse_submission` turns it into the *same*
:class:`~repro.campaign.plan.Job` a campaign would plan, so the job's
content key addresses the same shared warm cache: a submission another
client already paid for costs zero compute.

Each accepted submission becomes a :class:`JobRecord` whose
:class:`EventLog` buffers the run's flow events for replay — a client
may connect to ``GET /jobs/{id}/events`` before, during, or after the
run and always sees the full stream from event 0 (subject to the
buffer cap), live-tailed until the job resolves.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.campaign.plan import CampaignSpec, Job, expand
from repro.core.atpg import AtpgOptions
from repro.errors import ReproError
from repro.serve.protocol import HttpError

__all__ = [
    "ACTIVE_STATES",
    "EventLog",
    "JobRecord",
    "parse_submission",
    "parse_campaign_submission",
]

#: The active states of a record; every other state is terminal:
#: ``done``, ``cached`` (answered from the warm store at submit time),
#: ``coalesced`` (rode an identical in-flight submission), ``cancelled``,
#: and the campaign runner's :class:`~repro.campaign.runner.JobOutcome`
#: failure statuses.
ACTIVE_STATES = ("queued", "running")

#: Events an :class:`EventLog` buffers before it drops the oldest half.
_MAX_EVENTS = 100_000

#: Submission keys that are service-level, not AtpgOptions fields.
_META_KEYS = {
    "benchmark", "netlist", "netlist_path", "style", "options",
    "client", "refresh",
}


class EventLog:
    """An append-only event buffer with async live tailing.

    Producers (executor threads) append JSON-ready event docs via
    :meth:`append_threadsafe`; consumers iterate :meth:`stream`, which
    replays history from any index and then waits for new events until
    the log is closed.  The buffer is capped: when more than
    ``_MAX_EVENTS`` accumulate the oldest half is dropped and late
    readers get one synthetic ``EventsDropped`` doc instead.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._events: List[Dict] = []
        self._base = 0  # seq of _events[0]
        self._closed = False
        self._waiters: List[asyncio.Future] = []

    @property
    def next_seq(self) -> int:
        return self._base + len(self._events)

    @property
    def closed(self) -> bool:
        return self._closed

    def _wake(self) -> None:
        waiters, self._waiters = self._waiters, []
        for fut in waiters:
            if not fut.done():
                fut.set_result(None)

    def append(self, doc: Dict) -> None:
        """Append one event doc (event-loop thread only)."""
        if self._closed:
            return
        self._events.append(doc)
        if len(self._events) > _MAX_EVENTS:
            dropped = len(self._events) // 2
            self._base += dropped
            del self._events[:dropped]
        self._wake()

    def append_threadsafe(self, doc: Dict) -> None:
        self._loop.call_soon_threadsafe(self.append, doc)

    def close(self) -> None:
        """No more events will arrive; release every tailing reader."""
        self._closed = True
        self._wake()

    async def stream(self, start: int = 0):
        """Yield ``(seq, doc)`` from ``start``; live until closed."""
        cursor = start
        while True:
            if cursor < self._base:
                yield cursor, {
                    "event": "EventsDropped",
                    "stage": "",
                    "n_dropped": self._base - cursor,
                }
                cursor = self._base
            while cursor < self.next_seq:
                yield cursor, self._events[cursor - self._base]
                cursor += 1
            if self._closed:
                return
            fut = self._loop.create_future()
            self._waiters.append(fut)
            await fut


@dataclass
class JobRecord:
    """One accepted submission and its lifecycle."""

    id: str
    job: Job
    submission: Dict  #: canonical body (restart persistence re-submits it)
    client: str
    events: EventLog
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    seconds: float = 0.0  #: execution wall time (0 for cache answers)
    error: str = ""
    payload: Optional[Dict] = field(default=None, repr=False)
    primary_id: Optional[str] = None  #: set on coalesced followers

    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES

    @property
    def ok(self) -> bool:
        return self.state in ("done", "cached", "coalesced")

    def to_json_dict(self, verbose: bool = False) -> Dict:
        doc = {
            "id": self.id,
            "name": self.job.name,
            "key": self.job.key,
            "state": self.state,
            "client": self.client,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "seconds": round(self.seconds, 6),
            "error": self.error,
            "n_events": self.events.next_seq,
            "events_url": f"/jobs/{self.id}/events",
            "result_url": f"/results/{self.job.key}" if self.ok else None,
        }
        if self.primary_id:
            doc["primary_id"] = self.primary_id
        if verbose:
            doc["options"] = self.job.options.to_json_dict()
            doc["source"] = {
                "kind": self.job.source_kind,
                "source": self.job.source,
                "style": self.job.style,
            }
        return doc


def _options_from_body(body: Dict) -> AtpgOptions:
    """The fully-resolved options a submission implies.

    ``options`` is the explicit dict; any bare AtpgOptions field name
    at the top level (``seed``, ``fault_model``, ``deadline_seconds``,
    ...) is accepted as a convenience and merged in.
    """
    options = dict(body.get("options") or {})
    known = {f for f in AtpgOptions.__dataclass_fields__}
    for key, value in body.items():
        if key in known and key not in options:
            options[key] = value
        elif key not in known and key not in _META_KEYS:
            raise HttpError(400, f"unknown submission field {key!r}")
    try:
        return AtpgOptions.from_json_dict(options)
    except (ReproError, TypeError) as exc:
        raise HttpError(400, f"bad options: {exc}")


def spool_netlist(text: str, spool_dir: Path) -> Path:
    """Persist inline netlist text under its content hash.

    The planner fingerprints source *files*; spooling gives an inline
    submission a stable file whose bytes hash identically on every
    resubmission, so inline and path submissions of the same netlist
    share one cache entry."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]
    spool_dir.mkdir(parents=True, exist_ok=True)
    path = spool_dir / f"{digest}.net"
    if not path.exists():
        tmp = path.with_suffix(".tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
    return path


def _single_job(source: str, style: str, options: AtpgOptions) -> Job:
    """Plan exactly one job through the campaign expander, so the name,
    group, and — critically — the content ``key`` match what a campaign
    over the same axes would produce."""
    spec = CampaignSpec(
        benchmarks=[source],
        styles=(style,),
        fault_models=(options.fault_model,),
        seeds=(options.seed,),
        ks=(options.k,),
        cssg_methods=(None,),  # inherit options.cssg_method
        options=options,
    )
    jobs = expand(spec)
    assert len(jobs) == 1
    return jobs[0]


def parse_submission(
    body: Dict, spool_dir: Path, clamp_deadline=None
) -> Tuple[Job, Dict]:
    """``POST /jobs`` body -> ``(planned job, canonical submission)``.

    Exactly one of ``benchmark`` / ``netlist`` (inline text) /
    ``netlist_path`` must name the circuit.  ``clamp_deadline`` is the
    server's QoS hook: it receives the requested ``deadline_seconds``
    (or ``None``) and returns the effective one.  The canonical
    submission is what the restart queue persists — inline netlists are
    already spooled, so it always round-trips.
    """
    sources = [k for k in ("benchmark", "netlist", "netlist_path") if body.get(k)]
    if len(sources) != 1:
        raise HttpError(
            400, "submit exactly one of benchmark / netlist / netlist_path"
        )
    options = _options_from_body(body)
    if clamp_deadline is not None:
        options = replace(
            options, deadline_seconds=clamp_deadline(options.deadline_seconds)
        )
    style = body.get("style", "complex")
    if style not in ("complex", "two-level"):
        raise HttpError(400, f"unknown style {style!r}")
    kind = sources[0]
    if kind == "benchmark":
        source = str(body["benchmark"])
    elif kind == "netlist_path":
        source = str(body["netlist_path"])
        if not Path(source).exists():
            raise HttpError(400, f"netlist file not found: {source!r}")
    else:
        source = str(spool_netlist(str(body["netlist"]), spool_dir))
    try:
        job = _single_job(source, style, options)
    except ReproError as exc:
        raise HttpError(400, str(exc))
    canonical = {
        ("netlist_path" if kind == "netlist" else kind): source,
        "style": style,
        "options": options.to_json_dict(),
    }
    return job, canonical


def parse_campaign_submission(
    body: Dict, clamp_deadline=None
) -> Tuple[List[Job], List[Dict]]:
    """A ``campaign`` submission -> the expanded jobs, one canonical
    single-job submission per job (each is admitted, coalesced, and
    persisted independently — a campaign is just a batch of jobs)."""
    spec_doc = body.get("campaign")
    if not isinstance(spec_doc, dict):
        raise HttpError(400, "campaign must be an object of spec axes")
    unknown = sorted(
        set(spec_doc)
        - {"benchmarks", "styles", "fault_models", "seeds", "ks",
           "cssg_methods", "options"}
    )
    if unknown:
        raise HttpError(400, f"unknown campaign fields: {unknown}")
    try:
        options = AtpgOptions.from_json_dict(dict(spec_doc.get("options") or {}))
    except (ReproError, TypeError) as exc:
        raise HttpError(400, f"bad campaign options: {exc}")
    if clamp_deadline is not None:
        options = replace(
            options, deadline_seconds=clamp_deadline(options.deadline_seconds)
        )
    spec = CampaignSpec(
        benchmarks=list(spec_doc.get("benchmarks") or []),
        styles=tuple(spec_doc.get("styles") or ("complex",)),
        fault_models=tuple(spec_doc.get("fault_models") or ("output", "input")),
        seeds=tuple(spec_doc.get("seeds") or (0,)),
        ks=tuple(spec_doc.get("ks") or (None,)),
        cssg_methods=tuple(spec_doc.get("cssg_methods") or (None,)),
        options=options,
    )
    if not spec.benchmarks:
        raise HttpError(400, "campaign.benchmarks must be non-empty")
    try:
        jobs = expand(spec)
    except ReproError as exc:
        raise HttpError(400, str(exc))
    submissions = [
        {
            ("benchmark" if job.source_kind == "benchmark" else "netlist_path"):
                job.source,
            "style": job.style,
            "options": job.options.to_json_dict(),
        }
        for job in jobs
    ]
    return jobs, submissions
