"""Fuzzing as campaign jobs: seed-range chunks on the existing runner.

A fuzz campaign is a seed interval ``[start, stop)`` chopped into
chunks; each chunk is a regular :class:`~repro.campaign.plan.Job` with
``source_kind="fuzz"`` whose ``source`` is the canonical JSON job
document (generator config, oracle caps, oracle list, seed range).
The job key is the SHA-256 of that document — same seeds + same config
+ same code version means a warm rerun is served entirely from the
content-addressed result store, exactly like benchmark ATPG jobs.

:func:`~repro.campaign.runner.execute_job` dispatches these jobs here;
they ride the fork workers, heartbeats, hang policing and the store
untouched.  Results are byte-deterministic: the only non-deterministic
payload field is ``cpu_seconds`` (excluded from reproducibility
comparisons, like everywhere else in the repo).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.atpg import RESULT_SCHEMA_VERSION, AtpgOptions
from repro.campaign.plan import CODE_VERSION, Job
from repro.errors import ReproError
from repro.flow import ProgressTick
from repro.fuzz.generator import GeneratorConfig, generate_scenario
from repro.fuzz.oracles import OracleCaps, oracle_names, run_scenario
from repro.fuzz.shrink import shrink_scenario

__all__ = [
    "FUZZ_SCHEMA_VERSION",
    "FuzzSpec",
    "aggregate_reports",
    "execute_fuzz_job",
    "expand_fuzz",
    "fuzz_job_key",
]

#: Version of the fuzz job document *and* result block; bump on any
#: change to generation, oracles or shrinking semantics so stale
#: cached verdicts can never satisfy a new campaign.
FUZZ_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class FuzzSpec:
    """What to fuzz: a seed interval and the knobs that shape it."""

    start: int = 0
    stop: int = 200
    chunk: int = 25  #: seeds per job (one worker dispatch unit)
    oracles: Tuple[str, ...] = ()  #: () = the full battery
    config: GeneratorConfig = field(default_factory=GeneratorConfig)
    caps: OracleCaps = field(default_factory=OracleCaps)
    shrink: bool = True  #: auto-shrink divergent scenarios in-job


def _job_doc(spec: FuzzSpec, a: int, b: int) -> Dict:
    return {
        "fuzz_schema": FUZZ_SCHEMA_VERSION,
        "code_version": CODE_VERSION,
        "result_schema": RESULT_SCHEMA_VERSION,
        "config": spec.config.to_json_dict(),
        "caps": spec.caps.to_json_dict(),
        "oracles": list(spec.oracles or oracle_names()),
        "seeds": [a, b],
        "shrink": bool(spec.shrink),
    }


def fuzz_job_key(doc: Dict) -> str:
    """Content hash of a fuzz job document (its store address)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def expand_fuzz(spec: FuzzSpec) -> List[Job]:
    """One job per seed chunk.

    >>> jobs = expand_fuzz(FuzzSpec(start=0, stop=100, chunk=40))
    >>> [j.name for j in jobs]
    ['fuzz/0..40', 'fuzz/40..80', 'fuzz/80..100']
    >>> jobs[0].source_kind
    'fuzz'
    """
    if spec.stop <= spec.start:
        raise ReproError(f"empty fuzz seed range [{spec.start}, {spec.stop})")
    if spec.chunk < 1:
        raise ReproError(f"fuzz chunk must be >= 1, got {spec.chunk}")
    unknown = sorted(set(spec.oracles) - set(oracle_names()))
    if unknown:
        raise ReproError(f"unknown oracles {unknown} (have {oracle_names()})")
    jobs = []
    for a in range(spec.start, spec.stop, spec.chunk):
        b = min(a + spec.chunk, spec.stop)
        doc = _job_doc(spec, a, b)
        key = fuzz_job_key(doc)
        jobs.append(
            Job(
                name=f"fuzz/{a}..{b}",
                source_kind="fuzz",
                source=json.dumps(doc, sort_keys=True),
                style="complex",
                seed=a,
                k=None,
                options=AtpgOptions(),
                key=key,
                group=key,
                cost_hint=b - a,
            )
        )
    return jobs


@dataclass
class FuzzResult:
    """One chunk's outcome; ``to_json_dict()`` is the stored payload."""

    seeds: Tuple[int, int]
    doc: Dict
    scenarios: List[Dict]
    divergences: List[Dict]
    rejections: Dict[str, int]
    checks: Dict[str, int]
    n_unproductive: int  #: seeds whose every generation attempt was rejected
    #: oracle-noted cases that are not divergences (``ScenarioReport.tallies``)
    tallies: Dict[str, int] = field(default_factory=dict)
    cpu_seconds: float = 0.0

    def to_json_dict(self) -> Dict:
        # schema_version keeps the runner's cache-freshness gate
        # (``_fresh_payload``) working unmodified for fuzz payloads.
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "kind": "fuzz",
            "fuzz_schema": FUZZ_SCHEMA_VERSION,
            "seeds": list(self.seeds),
            "config": self.doc["config"],
            "caps": self.doc["caps"],
            "oracles": self.doc["oracles"],
            "scenarios": self.scenarios,
            "divergences": self.divergences,
            "rejections": dict(sorted(self.rejections.items())),
            "checks": dict(sorted(self.checks.items())),
            "tallies": dict(sorted(self.tallies.items())),
            "n_scenarios": len(self.scenarios),
            "n_divergent": len({d["seed"] for d in self.divergences}),
            "n_unproductive": self.n_unproductive,
            "cpu_seconds": self.cpu_seconds,
        }


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def execute_fuzz_job(job: Job, listeners=()) -> FuzzResult:
    """Run one seed chunk: generate, oracle, shrink divergences.

    The per-seed scenario records carry only content *hashes* of the
    spec text (payloads stay small); divergence records carry the full
    failing text plus its shrunk minimal form — that is the artifact a
    nightly job uploads.
    """
    doc = json.loads(job.source)
    if doc.get("fuzz_schema") != FUZZ_SCHEMA_VERSION:
        raise ReproError(
            f"fuzz job schema {doc.get('fuzz_schema')!r} != {FUZZ_SCHEMA_VERSION}"
        )
    cfg = GeneratorConfig.from_json_dict(doc["config"])
    caps = OracleCaps.from_json_dict(doc["caps"])
    oracles = tuple(doc["oracles"])
    a, b = doc["seeds"]
    t0 = time.perf_counter()

    def emit(event) -> None:
        for listener in listeners:
            listener(event)

    scenarios: List[Dict] = []
    divergences: List[Dict] = []
    rejections: Dict[str, int] = {}
    checks: Dict[str, int] = {}
    tallies: Dict[str, int] = {}
    n_unproductive = 0
    for done, seed in enumerate(range(a, b)):
        emit(ProgressTick("fuzz", done=done, total=b - a, covered=0))
        scenario = generate_scenario(seed, cfg)
        if scenario is None:
            n_unproductive += 1
            continue
        for reason, n in scenario.rejections.by_reason.items():
            rejections[reason] = rejections.get(reason, 0) + n
        report = run_scenario(scenario, oracles, caps)
        for oracle, n in report.checks.items():
            checks[oracle] = checks.get(oracle, 0) + n
        for case, n in report.tallies.items():
            tallies[case] = tallies.get(case, 0) + n
        scenarios.append(
            {
                "seed": seed,
                "kind": scenario.kind,
                "style": scenario.style,
                "sha256": _sha(scenario.text),
                "attempts": scenario.rejections.attempts,
                "checks": dict(sorted(report.checks.items())),
                "tallies": dict(sorted(report.tallies.items())),
                "ok": report.ok,
            }
        )
        if report.ok:
            continue
        failing = sorted({d.oracle for d in report.divergences})
        shrunk_text = ""
        if doc["shrink"]:
            shrunk = shrink_scenario(scenario, _fails_predicate(failing, caps))
            shrunk_text = shrunk.text
        for d in report.divergences:
            divergences.append(
                {
                    "seed": seed,
                    "kind": scenario.kind,
                    "style": scenario.style,
                    "oracle": d.oracle,
                    "detail": d.detail,
                    "spec_text": scenario.text,
                    "shrunk_text": shrunk_text,
                }
            )
    return FuzzResult(
        seeds=(a, b),
        doc=doc,
        scenarios=scenarios,
        divergences=divergences,
        rejections=rejections,
        checks=checks,
        n_unproductive=n_unproductive,
        tallies=tallies,
        cpu_seconds=time.perf_counter() - t0,
    )


def _fails_predicate(failing_oracles: Sequence[str], caps: OracleCaps):
    """Does a candidate still diverge on any of the originally failing
    oracle pairs?  Candidates that crash an oracle count as *not*
    failing — shrinking must converge on the original defect, not on
    whatever new ways a truncated spec finds to blow up."""

    def fails(candidate) -> bool:
        try:
            return not run_scenario(candidate, failing_oracles, caps).ok
        except Exception:
            return False

    return fails


def aggregate_reports(payloads: Sequence[Dict]) -> Dict:
    """Campaign-level roll-up of fuzz chunk payloads (the ``repro-fuzz``
    summary and the CI gate read this single dict)."""
    out: Dict = {
        "n_scenarios": 0,
        "n_divergent": 0,
        "n_unproductive": 0,
        "by_kind": {},
        "checks": {},
        "tallies": {},
        "rejections": {},
        "divergences": [],
    }
    for payload in payloads:
        if payload.get("kind") != "fuzz":
            raise ReproError("aggregate_reports fed a non-fuzz payload")
        out["n_scenarios"] += payload["n_scenarios"]
        out["n_divergent"] += payload["n_divergent"]
        out["n_unproductive"] += payload["n_unproductive"]
        for record in payload["scenarios"]:
            kind = record["kind"]
            out["by_kind"][kind] = out["by_kind"].get(kind, 0) + 1
        for oracle, n in payload["checks"].items():
            out["checks"][oracle] = out["checks"].get(oracle, 0) + n
        for case, n in payload["tallies"].items():
            out["tallies"][case] = out["tallies"].get(case, 0) + n
        for reason, n in payload["rejections"].items():
            out["rejections"][reason] = out["rejections"].get(reason, 0) + n
        out["divergences"].extend(payload["divergences"])
    out["by_kind"] = dict(sorted(out["by_kind"].items()))
    out["checks"] = dict(sorted(out["checks"].items()))
    out["tallies"] = dict(sorted(out["tallies"].items()))
    out["rejections"] = dict(sorted(out["rejections"].items()))
    out["divergences"].sort(key=lambda d: (d["seed"], d["oracle"]))
    return out
