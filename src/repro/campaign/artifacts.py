"""Campaign artifacts: paper-shaped tables and machine-readable files.

``rows_from_outcomes`` groups each circuit variant's fault-model
payloads into one :class:`~repro.core.report.TableRow` of the paper's
Tables 1/2 through :func:`repro.core.report.payload_row`, the package's
one row builder (abort columns included).  ``write_artifacts`` renders
one campaign as:

* ``table.txt`` — the human table (:func:`repro.core.report.format_table`);
* ``campaign.csv`` — the same rows via :func:`repro.core.report.to_csv`;
* ``campaign.json`` — the manifest: spec, per-job records (key, status,
  seconds, headline numbers), aggregated rows and totals, versioned by
  :data:`ARTIFACT_SCHEMA_VERSION`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.plan import CODE_VERSION, CampaignSpec
from repro.campaign.runner import CampaignReport, JobOutcome
from repro.core.report import TableRow, format_table, payload_row, to_csv, to_json

#: Version of the ``campaign.json`` manifest layout.  Version 2 dropped
#: the rows' ``stage_seconds`` / ``bdd_cache_hits`` /
#: ``bdd_cache_lookups`` columns.
ARTIFACT_SCHEMA_VERSION = 2


def _row_name(outcome: JobOutcome) -> str:
    """The table-row label: the job display name minus the fault-model
    segment (both models fold into one row)."""
    job = outcome.job
    return job.name.replace(f"/{job.fault_model}", "", 1)


def rows_from_outcomes(outcomes: Sequence[JobOutcome]) -> List[TableRow]:
    """Aggregate job outcomes into table rows, one per circuit variant
    (source x style x seed x k x CSSG method), in first-seen order.
    Jobs that failed contribute nothing; a variant with no successful
    job is dropped."""
    variants: Dict[Tuple, Dict[str, Dict]] = {}
    names: Dict[Tuple, str] = {}
    order: List[Tuple] = []
    for outcome in outcomes:
        if not outcome.ok or outcome.payload is None:
            continue
        job = outcome.job
        variant = (
            job.source, job.style, job.seed, job.k, job.options.cssg_method
        )
        if variant not in variants:
            variants[variant] = {}
            names[variant] = _row_name(outcome)
            order.append(variant)
        variants[variant][job.fault_model] = outcome.payload
    return [
        payload_row(
            names[v],
            variants[v].get("output"),
            variants[v].get("input"),
            {
                m: p
                for m, p in variants[v].items()
                if m not in ("output", "input")
            },
        )
        for v in order
    ]


def campaign_manifest(
    spec: Optional[CampaignSpec], report: CampaignReport, title: str = "Campaign"
) -> Dict:
    """The machine-readable summary of one campaign run."""
    rows = rows_from_outcomes(report.outcomes)
    jobs = []
    for outcome in report.outcomes:
        record = {
            "name": outcome.job.name,
            "key": outcome.job.key,
            "source": outcome.job.source,
            "style": outcome.job.style,
            "fault_model": outcome.job.fault_model,
            "seed": outcome.job.seed,
            "k": outcome.job.k,
            "cssg_method": outcome.job.options.cssg_method,
            "status": outcome.status,
            "seconds": outcome.seconds,
            "error": outcome.error,
        }
        if outcome.payload is not None:
            record.update(
                n_total=outcome.payload["n_total"],
                n_covered=outcome.payload["n_covered"],
                n_undetectable=outcome.payload["n_undetectable"],
                n_aborted=outcome.payload["n_aborted"],
                n_tests=len(outcome.payload["tests"]),
            )
        if outcome.incremental is not None:
            record["incremental"] = dict(outcome.incremental)
        jobs.append(record)
    incremental = [o.incremental for o in report.outcomes if o.incremental]
    cohort_totals = (
        {
            "cohorts_total": sum(d.get("cohorts_total", 0) for d in incremental),
            "cohorts_reused": sum(
                d.get("cohorts_reused", 0) for d in incremental
            ),
            "cohorts_executed": sum(
                d.get("cohorts_executed", 0) for d in incremental
            ),
        }
        if incremental
        else None
    )
    return {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "code_version": CODE_VERSION,
        "title": title,
        "spec": spec.to_json_dict() if spec is not None else None,
        "summary": {
            "n_jobs": len(report.jobs),
            "n_ran": report.n_ran,
            "n_cached": report.n_cached,
            "n_failed": report.n_failed,
            "wall_seconds": report.wall_seconds,
            "workers": report.workers,
            #: None unless some job ran incrementally (see
            #: docs/incremental.md); sums cohort reuse across such jobs.
            "incremental": cohort_totals,
        },
        "jobs": jobs,
        "rows": [row.to_dict() for row in rows],
    }


def write_artifacts(
    out_dir: Union[str, Path],
    report: CampaignReport,
    spec: Optional[CampaignSpec] = None,
    title: str = "Campaign",
) -> Dict[str, Path]:
    """Write ``table.txt``, ``campaign.csv`` and ``campaign.json`` under
    ``out_dir``; returns the paths keyed by artifact name."""
    import json

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = rows_from_outcomes(report.outcomes)
    paths = {
        "table": out_dir / "table.txt",
        "csv": out_dir / "campaign.csv",
        "json": out_dir / "campaign.json",
    }
    paths["table"].write_text(format_table(rows, title=title) + "\n")
    paths["csv"].write_text(to_csv(rows))
    manifest = campaign_manifest(spec, report, title=title)
    paths["json"].write_text(json.dumps(manifest, indent=2) + "\n")
    # to_json and the manifest rows share TableRow.to_dict, so the CSV,
    # the manifest and this sidecar can never drift apart.
    (out_dir / "rows.json").write_text(to_json(rows) + "\n")
    paths["rows"] = out_dir / "rows.json"
    return paths
