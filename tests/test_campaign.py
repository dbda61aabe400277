"""The campaign orchestration subsystem: plan, store, runner, artifacts."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    campaign_manifest,
    expand,
    job_key,
    rows_from_outcomes,
    run_campaign,
    source_fingerprint,
    write_artifacts,
)
from repro.campaign.plan import CODE_VERSION
from repro.cli import campaign_main
from repro.core.atpg import AtpgOptions
from repro.errors import ReproError

#: Tiny, fast circuits for orchestration tests.
SMALL = ["dff", "chu150", "hazard"]

FAST = dict(random_walks=1, walk_len=1)


def small_spec(**option_overrides):
    opts = dict(FAST)
    opts.update(option_overrides)
    return CampaignSpec(benchmarks=SMALL, options=AtpgOptions(**opts))


def strip_cpu(payload):
    clean = dict(payload)
    clean.pop("cpu_seconds")
    return clean


# -- plan -------------------------------------------------------------------


def test_expand_axes_and_stable_keys():
    spec = CampaignSpec(
        benchmarks=["dff", "hazard"],
        fault_models=("output", "input"),
        seeds=(0, 1),
        options=AtpgOptions(**FAST),
    )
    jobs = expand(spec)
    assert len(jobs) == 2 * 2 * 2
    assert len({j.key for j in jobs}) == len(jobs)
    assert expand(spec) == jobs  # expansion is deterministic, keys stable


def test_key_changes_with_options_and_source(tmp_path):
    fp = source_fingerprint("benchmark", "dff")
    base = job_key(fp, "complex", AtpgOptions(seed=0))
    assert job_key(fp, "complex", AtpgOptions(seed=1)) != base
    assert job_key(fp, "two-level", AtpgOptions(seed=0)) != base
    # Touching the netlist bytes changes the fingerprint, hence the key.
    net = tmp_path / "toy.net"
    net.write_text(
        ".model toy\n.inputs A\n.gate a BUF A\n.gate y BUF a\n"
        ".outputs y\n.reset A=0 a=0 y=0\n"
    )
    fp1 = source_fingerprint("netlist", str(net))
    net.write_text(net.read_text() + "# a comment\n")
    assert source_fingerprint("netlist", str(net)) != fp1


def test_expand_cssg_method_axis():
    spec = CampaignSpec(
        benchmarks=["dff"],
        fault_models=("input",),
        cssg_methods=("hybrid", "symbolic"),
        options=AtpgOptions(**FAST),
    )
    jobs = expand(spec)
    assert len(jobs) == 2
    assert len({j.key for j in jobs}) == 2  # cached results stay distinct
    assert {j.options.cssg_method for j in jobs} == {"hybrid", "symbolic"}
    assert {j.name for j in jobs} == {
        "dff[complex]/input/hybrid",
        "dff[complex]/input/symbolic",
    }
    # The default (None) axis inherits the template's method and folds away.
    inherit = expand(
        CampaignSpec(
            benchmarks=["dff"],
            fault_models=("input",),
            options=AtpgOptions(cssg_method="symbolic", **FAST),
        )
    )
    assert len(inherit) == 1
    assert inherit[0].options.cssg_method == "symbolic"


def test_expand_rejects_unknown_benchmark():
    with pytest.raises(ReproError, match="unknown benchmark"):
        expand(CampaignSpec(benchmarks=["no-such-circuit"]))


def test_expand_accepts_netlist_paths(tmp_path):
    net = tmp_path / "toy.net"
    net.write_text(
        ".model toy\n.inputs A\n.gate a BUF A\n.gate y BUF a\n"
        ".outputs y\n.reset A=0 a=0 y=0\n"
    )
    jobs = expand(CampaignSpec(benchmarks=[str(net)], fault_models=("input",)))
    assert len(jobs) == 1
    assert jobs[0].source_kind == "netlist"
    report = run_campaign(jobs, workers=0, store=None)
    assert report.all_ok
    assert report.outcomes[0].result().coverage == 1.0


# -- store ------------------------------------------------------------------


def test_store_roundtrip_and_corruption(tmp_path):
    store = ResultStore(tmp_path)
    assert store.get("ab" * 32) is None
    store.put("ab" * 32, {"x": 1})
    assert store.get("ab" * 32) == {"x": 1}
    assert list(store.iter_keys()) == ["ab" * 32]
    store.path_for("ab" * 32).write_text("{not json")
    assert store.get("ab" * 32) is None  # corrupt entry reads as a miss
    assert store.delete("ab" * 32) and not store.has("ab" * 32)


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachedir"))
    assert ResultStore().root == tmp_path / "cachedir"


# -- runner: cache behaviour -----------------------------------------------


def test_cache_hit_on_rerun_and_miss_on_option_change(tmp_path):
    store = ResultStore(tmp_path)
    jobs = expand(small_spec())
    cold = run_campaign(jobs, workers=0, store=store)
    assert cold.all_ok and cold.n_ran == len(jobs) and cold.n_cached == 0
    warm = run_campaign(jobs, workers=0, store=store)
    assert warm.n_ran == 0 and warm.n_cached == len(jobs)
    # Same circuits, different options: every job misses.
    changed = run_campaign(expand(small_spec(walk_len=2)), workers=0, store=store)
    assert changed.n_cached == 0 and changed.n_ran == len(jobs)


def test_cache_miss_on_netlist_change(tmp_path):
    net = tmp_path / "toy.net"
    net.write_text(
        ".model toy\n.inputs A\n.gate a BUF A\n.gate y BUF a\n"
        ".outputs y\n.reset A=0 a=0 y=0\n"
    )
    spec = CampaignSpec(benchmarks=[str(net)], fault_models=("input",))
    store = ResultStore(tmp_path / "cache")
    assert run_campaign(expand(spec), workers=0, store=store).n_ran == 1
    assert run_campaign(expand(spec), workers=0, store=store).n_cached == 1
    net.write_text(net.read_text().replace("y BUF a", "y INV a"))
    rerun = run_campaign(expand(spec), workers=0, store=store)
    assert rerun.n_ran == 1 and rerun.n_cached == 0


def test_store_none_disables_caching(tmp_path):
    jobs = expand(small_spec())
    first = run_campaign(jobs, workers=0, store=None)
    second = run_campaign(jobs, workers=0, store=None)
    assert first.n_ran == second.n_ran == len(jobs)


# -- runner: determinism across worker counts -------------------------------


@pytest.mark.parametrize("workers", [0, 1, 2])
def test_results_identical_regardless_of_workers(tmp_path, workers):
    jobs = expand(small_spec())
    report = run_campaign(jobs, workers=workers, store=ResultStore(tmp_path))
    assert report.all_ok
    baseline = run_campaign(jobs, workers=0, store=None)
    base_by_key = baseline.by_key
    for outcome in report.outcomes:
        assert strip_cpu(outcome.payload) == strip_cpu(
            base_by_key[outcome.job.key].payload
        ), outcome.job.name


def test_failed_job_is_isolated(tmp_path):
    net = tmp_path / "bad.net"
    net.write_text(".model bad\n.inputs A\n.gate y BUF A\n.outputs y\n")  # no reset
    spec = CampaignSpec(
        benchmarks=SMALL + [str(net)], fault_models=("input",),
        options=AtpgOptions(**FAST),
    )
    report = run_campaign(expand(spec), workers=2, store=ResultStore(tmp_path / "c"))
    assert report.n_failed == 1
    failed = [o for o in report.outcomes if not o.ok]
    assert failed[0].job.source == str(net)
    assert failed[0].status == "failed" and failed[0].error
    assert sum(1 for o in report.outcomes if o.ok) == len(SMALL)


# -- runner: crash isolation and resume -------------------------------------


def _fork_only():
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork start method")


def test_resume_after_worker_crash(tmp_path, monkeypatch):
    """With one worker, only its respawned replacement can finish the
    queue; with two, the survivor may.  Both must leave exactly the
    crashed job to the resumed run.  (One test over both worker counts,
    so its id stays put.  Workers are forked, so they inherit the
    patched crash below — Linux/fork only.)"""
    _fork_only()
    import os

    import repro.campaign.runner as runner_mod

    real_execute = runner_mod.execute_job
    jobs = expand(small_spec())
    for workers in (1, 2):
        marker = tmp_path / f"crashed-once-{workers}"

        def crash_once_on_chu150(job, cssg_memo=None, marker=marker):
            if job.source == "chu150" and not marker.exists():
                marker.write_text(job.key)
                os._exit(3)  # a native crash: no exception, no cleanup
            return real_execute(job, cssg_memo)

        monkeypatch.setattr(runner_mod, "execute_job", crash_once_on_chu150)
        store = ResultStore(tmp_path / f"cache-{workers}")
        first = run_campaign(jobs, workers=workers, store=store, timeout=60)
        assert marker.exists()  # the simulated crash fired
        crashed = [o for o in first.outcomes if o.status == "crashed"]
        assert len(crashed) == 1 and crashed[0].job.source == "chu150"
        assert crashed[0].error == "worker process died"
        # Healthy jobs from the same campaign all completed and were cached.
        assert first.n_ran == len(jobs) - 1
        # Second run resumes: only the crashed job is recomputed.
        resumed = run_campaign(jobs, workers=workers, store=store, timeout=60)
        assert resumed.all_ok
        assert resumed.n_ran == 1 and resumed.n_cached == len(jobs) - 1


def test_hung_job_times_out_and_campaign_continues(tmp_path, monkeypatch):
    """A job that never returns is killed at the per-job timeout; the
    rest of the campaign still completes.  (Workers are forked, so they
    inherit the patched hang below — Linux/fork only.)"""
    _fork_only()
    import repro.campaign.runner as runner_mod

    real_execute = runner_mod.execute_job

    def hang_on_chu150(job, cssg_memo=None):
        if job.source == "chu150":
            import time as time_mod

            time_mod.sleep(60)
        return real_execute(job, cssg_memo)

    monkeypatch.setattr(runner_mod, "execute_job", hang_on_chu150)
    store = ResultStore(tmp_path)
    report = run_campaign(expand(small_spec()), workers=2, store=store, timeout=1.0)
    timed_out = [o for o in report.outcomes if o.status == "timeout"]
    # The first chu150 job hits the deadline; its group-mate is re-queued
    # onto a replacement worker, hangs the same way, and times out too.
    assert {o.job.source for o in timed_out} == {"chu150"}
    assert len(timed_out) == 2
    assert all("timeout" in o.error for o in timed_out)
    ok = [o for o in report.outcomes if o.ok]
    assert {o.job.source for o in ok} == {"dff", "hazard"}


# -- artifacts ---------------------------------------------------------------


def test_rows_and_artifacts(tmp_path):
    spec = small_spec()
    report = run_campaign(expand(spec), workers=0, store=None)
    rows = rows_from_outcomes(report.outcomes)
    assert [r.name for r in rows] == [f"{n}[complex]" for n in SMALL]
    for row in rows:
        assert row.out_tot > 0 and row.in_tot > 0
    manifest = campaign_manifest(spec, report)
    assert manifest["summary"]["n_jobs"] == len(report.jobs)
    assert manifest["code_version"] == CODE_VERSION
    paths = write_artifacts(tmp_path / "art", report, spec, title="T")
    data = json.loads(paths["json"].read_text())
    assert data["rows"] == [r.to_dict() for r in rows]
    assert paths["table"].read_text().startswith("T\n")
    csv_text = paths["csv"].read_text()
    assert csv_text.splitlines()[0].startswith("name,")
    assert len(csv_text.splitlines()) == 1 + len(rows)


# -- CLI ---------------------------------------------------------------------


def test_repro_campaign_cli_smoke(tmp_path, capsys):
    args = [
        "dff", "chu150", "--workers", "0", "--cache-dir", str(tmp_path / "c"),
        "--random-walks", "1", "--walk-len", "1", "--quiet",
        "--out", str(tmp_path / "art"),
    ]
    assert campaign_main(args) == 0
    out = capsys.readouterr()
    assert "dff[complex]" in out.out and "chu150[complex]" in out.out
    assert "4 jobs: 4 ran, 0 cached" in out.err
    assert (tmp_path / "art" / "campaign.json").exists()
    # Warm rerun: zero executed jobs, --json manifest says all cached.
    assert campaign_main(args + ["--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["summary"]["n_ran"] == 0
    assert manifest["summary"]["n_cached"] == 4


def test_repro_campaign_cli_method_axis(tmp_path, capsys):
    args = [
        "hazard", "--workers", "0", "--no-cache", "--quiet",
        "--models", "input", "--random-walks", "1", "--walk-len", "1",
        "--cssg-method", "hybrid,symbolic", "--json",
        "--out", str(tmp_path / "art"),
    ]
    assert campaign_main(args) == 0
    out = capsys.readouterr()
    manifest = json.loads(out.out)
    names = {j["name"] for j in manifest["jobs"]}
    assert names == {
        "hazard[complex]/input/hybrid",
        "hazard[complex]/input/symbolic",
    }
    covs = {j["name"]: j["n_covered"] for j in manifest["jobs"]}
    assert len(set(covs.values())) == 1  # methods agree on coverage
    # One table row per method — the method is part of the variant key.
    rows = manifest["rows"]
    assert len(rows) == 2
    by_method = {r["cssg_method"]: r for r in rows}
    assert set(by_method) == {"hybrid", "symbolic"}
    assert by_method["hybrid"]["in_cov"] == by_method["symbolic"]["in_cov"]
    assert by_method["symbolic"]["tcsg_states"] > 0
    csv_text = (tmp_path / "art" / "campaign.csv").read_text()
    assert csv_text.count("hazard[complex]") == 2


def test_repro_campaign_cli_rejects_unknown_method(capsys):
    assert campaign_main(["dff", "--cssg-method", "magic"]) == 2
    assert "unknown --cssg-method" in capsys.readouterr().err


def test_repro_campaign_cli_unknown_benchmark(capsys):
    assert campaign_main(["definitely-not-a-benchmark", "--workers", "0"]) == 1
    assert "unknown benchmark" in capsys.readouterr().err


def test_repro_atpg_campaign_alias(tmp_path, capsys):
    from repro.cli import main

    code = main(
        ["--campaign", "dff", "--workers", "0", "--no-cache",
         "--random-walks", "1", "--walk-len", "1", "--quiet"]
    )
    assert code == 0
    assert "dff[complex]" in capsys.readouterr().out


def test_refresh_forces_recompute(tmp_path, capsys):
    args = [
        "dff", "--workers", "0", "--cache-dir", str(tmp_path),
        "--random-walks", "1", "--walk-len", "1", "--quiet",
    ]
    assert campaign_main(args) == 0
    capsys.readouterr()
    assert campaign_main(args + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["n_cached"] == 2
    assert campaign_main(args + ["--refresh", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["n_ran"] == 2


def test_negative_worker_counts_raise_before_spawning():
    from repro.campaign.runner import _Pool

    # No jobs: a regression fails here instead of stepping an empty pool
    # forever.
    with pytest.raises(ReproError, match="workers must be >= 0, got -2"):
        run_campaign([], workers=-2, store=None)
    for width in (-1, 0):
        with pytest.raises(ReproError, match=f"needs >= 1 worker, got {width}"):
            _Pool([], width, 600)


def test_campaign_spec_rejects_out_of_range_options():
    with pytest.raises(ReproError, match="AtpgOptions.k must be >= 0"):
        expand(CampaignSpec(benchmarks=["dff"], ks=(-1,)))
    with pytest.raises(ReproError, match="AtpgOptions.random_walks"):
        CampaignSpec.table1(random_walks=-1)


def test_fault_universe_is_computed_once_per_job(monkeypatch, tmp_path):
    """Every job computes its fault universe once, whether it builds
    its group's CSSG or reuses the memoised one."""
    from repro.campaign import runner
    from repro.circuit import faults

    calls = []
    real = faults.fault_universe

    def counting(circuit, model):
        calls.append(model)
        return real(circuit, model)

    monkeypatch.setattr(faults, "fault_universe", counting)
    jobs = expand(CampaignSpec(benchmarks=["dff"], options=AtpgOptions(**FAST)))
    memo = {}
    for job in jobs:
        calls.clear()
        runner.execute_job(job, memo)
        assert calls == [job.options.fault_model], job.name
    store = ResultStore(tmp_path)
    memo = {}
    for job in jobs:
        calls.clear()
        runner.execute_job_incremental(job, store, memo)
        assert calls == [job.options.fault_model], job.name
