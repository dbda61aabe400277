"""Campaign orchestration: corpus-scale ATPG runs, cached and sharded.

The paper's Tables 1 and 2 are *campaigns* — dozens of (circuit, fault
model, options) ATPG runs whose numbers are aggregated into one report.
This package runs such campaigns as first-class objects:

* :mod:`repro.campaign.plan` — expand a :class:`CampaignSpec`
  (benchmarks x fault model x synthesis style x seed x k) into
  independent :class:`Job` s, each with a stable content hash over the
  source netlist bytes, the options, and the code version;
* :mod:`repro.campaign.store` — a content-addressed on-disk cache of
  serialized :class:`~repro.core.atpg.AtpgResult` JSON, so a job whose
  inputs haven't changed is never recomputed and interrupted campaigns
  resume where they stopped;
* :mod:`repro.campaign.cohort` — the incremental layer beneath the
  whole-job cache: fault cohorts keyed by structural cone of influence,
  per-cohort partial payloads, and the merge that reassembles a full
  result so an edit re-runs only the cohorts its cone changes touch;
* :mod:`repro.campaign.runner` — shard jobs across a ``multiprocessing``
  worker pool (per-job timeouts, crash isolation, live progress), or run
  them in-process with ``workers=0`` for honest single-stream timings;
* :mod:`repro.campaign.artifacts` — aggregate job results into the
  paper's table layout plus machine-readable JSON/CSV artifacts.

The ``repro-campaign`` CLI (:func:`repro.cli.campaign_main`) and the
table benchmarks are thin wrappers over these four layers.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.campaign.artifacts": (
        "ARTIFACT_SCHEMA_VERSION", "campaign_manifest", "rows_from_outcomes",
        "write_artifacts",
    ),
    "repro.campaign.cohort": (
        "Cohort", "IncrementalStats", "cohort_key", "cohort_salt", "cone_of",
        "partition",
    ),
    "repro.campaign.plan": (
        "CODE_VERSION", "CampaignSpec", "Job", "cohort_plan", "expand", "job_key",
        "source_fingerprint",
    ),
    "repro.campaign.runner": (
        "CampaignReport", "JobOutcome", "execute_job", "execute_job_incremental",
        "load_job_circuit", "run_campaign",
    ),
    "repro.campaign.store": ("ResultStore", "default_cache_dir"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
