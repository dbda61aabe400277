"""Experiment E-incremental — the edit-rerun warm path.

The dominant real-world workload is edit → re-ATPG: one gate of a
netlist changes and everything else is untouched.  The whole-job cache
(PR 2) is useless there — the content key covers the source bytes, so
any edit is a full cold run.  The per-cohort incremental layer must
turn that into O(changed logic):

* **cold** — ATPG the benchmark from an empty cache (every cohort
  executes, the CSSG is built);
* **edit** — a single-gate edit (an internal signal rename: cohort
  cones that see the name go stale, the name-free CSSG fingerprint
  does not) followed by an incremental rerun.

Asserted floors: the rerun executes only the affected cohorts (reuse
> 0, executed < total, CSSG reused) and beats the cold run by at
least ``SPEEDUP_FLOOR`` wall clock.  The largest bundled benchmark by
state structure (``vbe10b``, 13 signals) with the symbolic CSSG engine
keeps the cold run honest — construction dominates, exactly the cost
an edit-rerun must not pay twice.

Results land in ``benchmarks/out/BENCH_incremental.json``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest

from repro.benchmarks_data import load_benchmark
from repro.campaign import CampaignSpec, ResultStore, expand
from repro.campaign.cohort import cohort_salt, partition
from repro.campaign.runner import execute_job_incremental, load_job_circuit
from repro.circuit.faults import fault_universe
from repro.circuit.parser import netlist_to_text
from repro.core.atpg import AtpgOptions

OUT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_incremental.json"

BENCH = "vbe10b"  #: largest bundled benchmark by state structure
EDIT = ("r$buf", "r$buf_r")  #: internal-signal rename: one chain stale

#: Asserted wall-clock floor for cold / edit-rerun (CI bar; local
#: machines and the acceptance criterion sit far above it).
SPEEDUP_FLOOR = 5.0

_results = {}


@pytest.fixture(scope="session", autouse=True)
def emit_json():
    yield
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(_results, indent=2) + "\n")
    print(f"\nwrote {OUT_PATH}")


def _job_for(net_path):
    spec = CampaignSpec(
        benchmarks=[str(net_path)],
        fault_models=("input",),
        # the symbolic engine makes CSSG construction the honest
        # dominant cold cost on a 13-signal circuit
        options=AtpgOptions(cssg_method="symbolic"),
    )
    return expand(spec)[0]


def test_edit_rerun_speedup(tmp_path, capsys):
    base_text = netlist_to_text(load_benchmark(BENCH, "complex"))
    assert EDIT[0] in base_text and EDIT[1] not in base_text
    net = tmp_path / f"{BENCH}.net"
    net.write_text(base_text)

    # cold: median of fresh-cache runs (refresh re-executes everything)
    store = ResultStore(tmp_path / "cache")
    job = _job_for(net)
    cold_times = []
    cold_payload = cold_stats = None
    for i in range(3):
        t0 = time.perf_counter()
        cold_payload, _live, cold_stats = execute_job_incremental(
            job, store, refresh=i > 0
        )
        cold_times.append(time.perf_counter() - t0)
    cold = statistics.median(cold_times)
    assert cold_stats.cohorts_executed == cold_stats.cohorts_total > 1

    # the single-gate edit: rename an internal signal of one chain
    net.write_text(base_text.replace(EDIT[0], EDIT[1]))
    edited = _job_for(net)
    assert edited.key != job.key  # the whole-job cache would miss

    # Each timed iteration is a true first-rerun-after-edit: the stale
    # cohorts' fresh partials are deleted again between runs.
    circuit = load_job_circuit(edited)
    universe = fault_universe(circuit, edited.options.fault_model)
    salt = cohort_salt(circuit, edited.style, edited.options)
    stale_keys = [
        c.key
        for c in partition(circuit, universe, salt)
        if not store.has_cohort(c.key)
    ]
    assert stale_keys
    warm_times = []
    warm_payload = warm_stats = None
    for _ in range(3):
        for key in stale_keys:
            store.delete_cohort(key)
        t0 = time.perf_counter()
        warm_payload, _live, warm_stats = execute_job_incremental(
            edited, store
        )
        warm_times.append(time.perf_counter() - t0)
    warm = statistics.median(warm_times)

    # only cohorts whose cones see the renamed signal re-executed, and
    # the name-free structural CSSG cache absorbed the rename outright
    assert warm_stats.cohorts_executed == len(stale_keys)
    assert 0 < warm_stats.cohorts_reused < warm_stats.cohorts_total
    assert warm_stats.cssg_reused
    assert warm_payload["n_covered"] == cold_payload["n_covered"]
    assert warm_payload["n_total"] == cold_payload["n_total"]
    first_rerun = _results.setdefault("edit_rerun", {})

    speedup = cold / warm if warm > 0 else float("inf")
    first_rerun.update(
        benchmark=BENCH,
        edit=f"rename {EDIT[0]} -> {EDIT[1]}",
        cold_seconds=round(cold, 6),
        edit_rerun_seconds=round(warm, 6),
        speedup=round(speedup, 2),
        speedup_floor=SPEEDUP_FLOOR,
        cold=cold_stats.to_json_dict(),
        rerun=warm_stats.to_json_dict(),
    )
    with capsys.disabled():
        print(
            f"\n[incremental] {BENCH}: cold {cold * 1e3:.1f}ms, edit-rerun "
            f"{warm * 1e3:.1f}ms, speedup {speedup:.1f}x "
            f"({warm_stats.cohorts_reused}/{warm_stats.cohorts_total} "
            f"cohorts reused, cssg_reused={warm_stats.cssg_reused})"
        )
    assert speedup >= SPEEDUP_FLOOR, (
        f"edit-rerun only {speedup:.2f}x faster than cold "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
