"""Campaign plans: a spec, its expansion into jobs, and content hashes.

A :class:`Job` is one ATPG invocation: a source (bundled benchmark name
or ``.net`` netlist path), a synthesis style, and fully-resolved
:class:`~repro.core.atpg.AtpgOptions`.  Its ``key`` is a SHA-256 over

* the **source bytes** (the ``.g`` STG or ``.net`` netlist file — the
  circuit is a pure function of those plus the style),
* the **options** (canonical JSON, every field — including the flow's
  stage gates ``collapse`` / ``compact`` and ``deadline_seconds``),
* the **stage list** the flow runs (``DEFAULT_STAGE_NAMES``), and
* the **code version** (:data:`CODE_VERSION`, bumped when an algorithm
  change alters results) and the result schema version.

Hashing source bytes instead of the synthesized netlist keeps the warm
path cheap: deciding that a job is cached costs one file read, not a
synthesis run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.benchmarks_data import (
    TABLE1_NAMES,
    TABLE2_NAMES,
    benchmark_path,
)
from repro.circuit.parser import refuse_stg_file
from repro.core.atpg import RESULT_SCHEMA_VERSION, AtpgOptions
from repro.errors import ReproError
from repro.flow import DEFAULT_STAGE_NAMES

#: Bump on any change to synthesis / CSSG / ATPG that alters results.
#: Part of every job key, so a bump invalidates the whole cache at once.
#: "2": the symbolic-kernel rewrite — ``cssg_method="auto"`` now
#: resolves to "symbolic" (not "ternary") above the exact limit.
#: "3": the fault-model registry — ``fault_model`` now names a
#: registered model (``bridging`` / ``transition`` joined the stuck-at
#: pair), and transition-aware collapsing changed the collapse
#: signature space.
CODE_VERSION = "3"


@dataclass(frozen=True)
class Job:
    """One independent ATPG run of a campaign."""

    name: str  #: display name, e.g. ``"ebergen[complex]/input/s0"``
    source_kind: str  #: ``"benchmark"`` (bundled STG) or ``"netlist"``
    source: str  #: benchmark name, or path to a ``.net`` file
    style: str  #: synthesis back end (benchmarks only)
    seed: int
    k: Optional[int]
    options: AtpgOptions  #: fully resolved (fault_model/seed/k applied)
    key: str  #: content hash; the store address of the result
    group: str  #: jobs sharing a circuit; co-scheduled on one worker
    cost_hint: int  #: source size in bytes; big groups are scheduled first

    @property
    def fault_model(self) -> str:
        return self.options.fault_model


@dataclass
class CampaignSpec:
    """What to run: the cross product of the axes below.

    ``benchmarks`` entries are bundled benchmark names, or paths to
    ``.net`` netlists (recognized by a path separator or a ``.net``
    suffix).  ``options`` is the template every job inherits; each job
    overrides its ``fault_model``, ``seed`` and ``k`` from the axes.

    ``fault_models`` accepts any name registered in
    :mod:`repro.faultmodels` (``input`` / ``output`` / ``bridging`` /
    ``transition``); :func:`expand` validates the names up front, and
    each model lands in the job's content key, so e.g. a bridging run
    and a transition run of the same circuit cache independently.

    >>> spec = CampaignSpec(benchmarks=["dff"], seeds=(0, 1),
    ...                     fault_models=("input", "bridging"))
    >>> len(expand(spec))   # 1 benchmark x 1 style x 2 models x 2 seeds
    4
    """

    benchmarks: Sequence[str] = TABLE1_NAMES
    styles: Sequence[str] = ("complex",)
    fault_models: Sequence[str] = ("output", "input")
    seeds: Sequence[int] = (0,)
    ks: Sequence[Optional[int]] = (None,)
    #: CSSG construction methods to cross (``None`` = inherit the
    #: template's ``options.cssg_method``); a real axis like the others,
    #: so one campaign can compare e.g. hybrid vs symbolic runs.
    cssg_methods: Sequence[Optional[str]] = (None,)
    options: AtpgOptions = field(default_factory=AtpgOptions)

    @staticmethod
    def table1(seeds: Sequence[int] = (0,), **option_overrides) -> "CampaignSpec":
        """The paper's Table 1: every SI benchmark, complex gates.

        ``fault_model`` / ``seed`` / ``k`` are spec axes, not template
        options — pass ``seeds=(...)`` here, not ``seed=...``."""
        return CampaignSpec(
            benchmarks=TABLE1_NAMES,
            styles=("complex",),
            seeds=tuple(seeds),
            options=AtpgOptions(**option_overrides),
        )

    @staticmethod
    def table2(seeds: Sequence[int] = (0,), **option_overrides) -> "CampaignSpec":
        """The paper's Table 2 subset: two-level redundant covers."""
        return CampaignSpec(
            benchmarks=TABLE2_NAMES,
            styles=("two-level",),
            seeds=tuple(seeds),
            options=AtpgOptions(**option_overrides),
        )

    def to_json_dict(self) -> Dict:
        return {
            "benchmarks": list(self.benchmarks),
            "styles": list(self.styles),
            "fault_models": list(self.fault_models),
            "seeds": list(self.seeds),
            "ks": list(self.ks),
            "cssg_methods": list(self.cssg_methods),
            "options": self.options.to_json_dict(),
        }


def _classify_source(entry: str) -> Tuple[str, str]:
    """``(source_kind, source)`` for one ``benchmarks`` entry.

    Bundled names win; otherwise any existing file is a netlist (not
    just ``*.net`` paths) unless it is a ``.g`` STG spec, which fails
    here; otherwise path-looking entries fail here and bare words fall
    through to the unknown-benchmark error with the available list."""
    if entry in TABLE1_NAMES:
        return "benchmark", entry
    if Path(entry).exists():
        refuse_stg_file(entry)
        return "netlist", entry
    if "/" in entry or entry.endswith(".net"):
        raise ReproError(f"netlist file not found: {entry!r}")
    return "benchmark", entry


def source_fingerprint(source_kind: str, source: str) -> str:
    """SHA-256 of the source file bytes (STG or netlist)."""
    if source_kind == "benchmark":
        path = benchmark_path(source)  # raises ReproError for unknown names
    else:
        path = Path(source)
        if not path.exists():
            raise ReproError(f"netlist file not found: {source!r}")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def job_key(fingerprint: str, style: str, options: AtpgOptions) -> str:
    """The content hash a job's result is stored under.

    Campaigns run ``Flow.default()``, so the hashed doc lists
    :data:`~repro.flow.DEFAULT_STAGE_NAMES`: any change to the default
    pipeline lands in the key and invalidates stale cache entries."""
    doc = {
        "code_version": CODE_VERSION,
        "schema_version": RESULT_SCHEMA_VERSION,
        "source_sha256": fingerprint,
        "style": style,
        "options": options.to_json_dict(),
        "stages": list(DEFAULT_STAGE_NAMES),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _display_name(
    base: str,
    style: str,
    model: str,
    seed: int,
    k: Optional[int],
    method: Optional[str],
    spec: CampaignSpec,
) -> str:
    name = f"{base}[{style}]/{model}"
    if len(spec.seeds) > 1:
        name += f"/s{seed}"
    if len(spec.ks) > 1 or k is not None:
        name += f"/k{k}"
    if len(spec.cssg_methods) > 1:
        name += f"/{method or spec.options.cssg_method}"
    return name


def expand(spec: CampaignSpec) -> List[Job]:
    """Expand a spec into its independent jobs (stable order).

    Unknown benchmark names and missing netlist files fail here, before
    any worker starts, with a :class:`ReproError` naming the entry.
    """
    from repro.faultmodels import get_model

    for model in spec.fault_models:
        get_model(model)  # unknown names fail here, before any worker
    jobs: List[Job] = []
    seen: Dict[str, Job] = {}
    for entry in spec.benchmarks:
        source_kind, source = _classify_source(entry)
        base = Path(source).stem if source_kind == "netlist" else source
        cost_hint = (
            benchmark_path(source) if source_kind == "benchmark" else Path(source)
        ).stat().st_size
        fingerprint = source_fingerprint(source_kind, source)
        styles = spec.styles if source_kind == "benchmark" else ("complex",)
        for style in styles:
            group = f"{source}|{style}"
            for k in spec.ks:
                for seed in spec.seeds:
                    for method in spec.cssg_methods:
                        for model in spec.fault_models:
                            options = replace(
                                spec.options,
                                fault_model=model,
                                seed=seed,
                                k=k,
                                cssg_method=(
                                    method
                                    if method is not None
                                    else spec.options.cssg_method
                                ),
                            )
                            key = job_key(fingerprint, style, options)
                            if key in seen:
                                continue  # identical axes collapse to one job
                            job = Job(
                                name=_display_name(
                                    base, style, model, seed, k, method, spec
                                ),
                                source_kind=source_kind,
                                source=source,
                                style=style,
                                seed=seed,
                                k=k,
                                options=options,
                                key=key,
                                group=group,
                                cost_hint=cost_hint,
                            )
                            seen[key] = job
                            jobs.append(job)
    return jobs
