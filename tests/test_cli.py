"""The repro-atpg command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.atpg import RESULT_SCHEMA_VERSION


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "ebergen" in out and "vbe10b" in out


def test_run_bundled_benchmark(capsys):
    assert main(["hazard", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "hazard-complex" in out
    assert "covered" in out


def test_run_two_level_output_model(capsys):
    assert main(["hazard", "--style", "two-level", "--model", "output"]) == 0
    assert "two-level" in capsys.readouterr().out


def test_show_tests_and_undetected(capsys):
    assert main(["ebergen", "--show-tests", "--show-undetected"]) == 0
    out = capsys.readouterr().out
    assert "test 0" in out
    assert "undetected" in out  # ebergen has two untestable feedback pins


def test_run_netlist_file(tmp_path, capsys):
    net = tmp_path / "toy.net"
    net.write_text(
        ".model toy\n.inputs A\n.gate a BUF A\n.gate y BUF a\n"
        ".outputs y\n.reset A=0 a=0 y=0\n"
    )
    assert main([str(net)]) == 0
    assert "toy" in capsys.readouterr().out


def test_metrics_flag_restores_the_callers_registry_and_switch(tmp_path, capsys):
    """``--metrics`` collects into a registry of its own and leaves the
    process as it found it: an armed caller stays armed, with its own
    registry in place and untouched by the run."""
    from repro.obs import metrics as obs_metrics

    out = tmp_path / "m.prom"
    mine = obs_metrics.MetricsRegistry()
    previous = obs_metrics.set_registry(mine)
    try:
        with obs_metrics.armed():
            assert main(["dff", "--metrics", str(out)]) == 0
            assert obs_metrics.enabled()
            assert obs_metrics.get_registry() is mine
        assert mine.families() == []
        assert "repro_flow_faults_classified_total" in out.read_text()
        assert main(["dff", "--metrics", str(out)]) == 0
        assert not obs_metrics.enabled()
        assert obs_metrics.get_registry() is mine
    finally:
        obs_metrics.set_registry(previous)


def test_missing_argument(capsys):
    assert main([]) == 2
    assert "error" in capsys.readouterr().err


def test_nonexistent_path(capsys):
    assert main(["no/such/file.net"]) == 2
    assert "neither" in capsys.readouterr().err


def test_library_error_is_reported(tmp_path, capsys):
    net = tmp_path / "bad.net"
    net.write_text(".inputs A\n.gate g FROB A\n")
    assert main([str(net)]) == 1
    assert "error" in capsys.readouterr().err


def test_no_random_flag(capsys):
    assert main(["hazard", "--no-random"]) == 0
    out = capsys.readouterr().out
    assert "rnd 0," in out


def test_unknown_benchmark_name_is_a_clean_error(capsys):
    """A bad bare name exits 1 with a message, not a traceback."""
    assert main(["ebergenX"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "unknown benchmark" in err and "ebergen" in err
    assert "Traceback" not in err


def test_json_flag_emits_one_result_object(capsys):
    assert main(["dff", "--json", "--seed", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema_version"] == RESULT_SCHEMA_VERSION
    assert data["circuit"]["name"] == "dff-complex"
    assert data["options"]["seed"] == 4
    assert len(data["statuses"]) == len(data["faults"]) > 0


def test_cssg_method_hybrid_is_accepted(capsys):
    """Regression: 'hybrid' is a supported AtpgOptions.cssg_method but
    the CLI choices used to reject it."""
    assert main(["dff", "--cssg-method", "hybrid"]) == 0
    assert "covered" in capsys.readouterr().out


def test_cssg_method_symbolic_end_to_end_parity(capsys):
    """`--cssg-method symbolic` runs the whole flow and produces the
    same fault coverage (and per-fault verdicts) as the exact method."""
    results = {}
    for method in ("exact", "symbolic"):
        assert main(["dff", "--json", "--seed", "3",
                     "--cssg-method", method]) == 0
        results[method] = json.loads(capsys.readouterr().out)
    exact, symbolic = results["exact"], results["symbolic"]
    assert symbolic["cssg"]["method"] == "symbolic"
    assert symbolic["cssg"]["n_states"] == exact["cssg"]["n_states"]
    assert symbolic["cssg"]["n_edges"] == exact["cssg"]["n_edges"]
    assert symbolic["n_covered"] == exact["n_covered"]
    assert symbolic["n_total"] == exact["n_total"]
    strip = {"options", "cssg", "cpu_seconds"}
    assert {k: v for k, v in symbolic.items() if k not in strip} == {
        k: v for k, v in exact.items() if k not in strip
    }


def test_library_knob_flags(capsys):
    assert main(
        ["ebergen", "--collapse", "--compact", "--faulty-semantics", "ternary",
         "--json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["options"]["collapse"] is True
    assert data["options"]["compact"] is True
    assert data["options"]["faulty_semantics"] == "ternary"


def test_deadline_flag_yields_partial_result(capsys):
    assert main(["ebergen", "--deadline", "0", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["options"]["deadline_seconds"] == 0.0
    assert data["n_aborted"] == data["n_total"] > 0
    assert all(s["reason"] == "budget" for s in data["statuses"])


def test_show_undetected_includes_abort_reason(capsys):
    assert main(["dff", "--deadline", "0", "--show-undetected"]) == 0
    out = capsys.readouterr().out
    assert "undetected [aborted: budget]" in out


def test_progress_flag_renders_live_line(capsys):
    assert main(["dff", "--progress"]) == 0
    captured = capsys.readouterr()
    assert "covered=" in captured.err
    assert captured.err.endswith("\n")
    assert "covered" in captured.out  # the summary still prints


def test_trace_flag_writes_jsonl(tmp_path, capsys):
    """``--spans`` is the one trace file: the flow events ride the span
    records, each exactly once.  ``--trace`` is gone."""
    path = tmp_path / "spans.jsonl"
    assert main(["dff", "--spans", str(path)]) == 0
    records = [json.loads(line) for line in path.read_text().splitlines()]
    events = sorted(
        (event for rec in records for event in rec.get("events", ())),
        key=lambda event: event["t"],
    )
    assert events[0]["event"] == "StageStarted"
    assert {"StageFinished", "FaultClassified", "TestAdded"} <= {
        event["event"] for event in events
    }
    # 10 input stuck-at faults on dff: one verdict each, filed once
    assert sum(e["event"] == "FaultClassified" for e in events) == 10
    with pytest.raises(SystemExit) as exc:
        main(["dff", "--trace", str(tmp_path / "trace.jsonl")])
    assert exc.value.code == 2


#: ``python -c`` prologue binding ``entry`` to one console entry point.
ENTRY_POINTS = {
    "repro-atpg": "from repro.cli import main as entry",
    "repro-campaign": "from repro.cli import campaign_main as entry",
    "repro-cache": "from repro.cli import cache_main as entry",
}


def run_entry_point(name, argv, stdout=subprocess.DEVNULL):
    """Run one console entry point in a fresh interpreter, bounded by a
    timeout (a hang fails the test instead of stalling the suite)."""
    code = f"import sys; {ENTRY_POINTS[name]}; sys.exit(entry({argv!r}))"
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", code],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src_dir),
    )


@pytest.mark.parametrize("name,argv", [
    ("repro-atpg", ["dff", "--json"]),
    ("repro-campaign", ["dff", "--workers", "0", "--no-cache", "--quiet"]),
    # explicit id: the row keeps the test ID it had as the fourth row
    pytest.param("repro-cache", ["--cache-dir", "{tmp}", "stats"],
                 id="repro-cache-argv3"),
])
def test_broken_pipe_exits_1_without_traceback(name, argv, tmp_path):
    """A reader that is gone before the first write (``| head`` that
    already quit) ends every entry point with status 1 and nothing on
    stderr but its own progress lines."""
    argv = [a.format(tmp=tmp_path) for a in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_entry_point(name, argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


@pytest.mark.parametrize("name,argv", [
    ("repro-campaign", ["dff", "--workers", "-2", "--no-cache"]),
])
def test_negative_workers_exit_2(name, argv):
    proc = run_entry_point(name, argv)
    assert proc.returncode == 2
    assert "--workers: must be >= 0, got -" in proc.stderr


@pytest.mark.parametrize("value", ["-1", "0", "nan"])
def test_campaign_timeout_must_be_positive(value, capsys):
    """A per-job timeout that is not > 0 would fail every job still
    running at the first policing sweep: the CLI refuses it (exit 2)
    and so does ``run_campaign``.  ``inf`` stays valid: never time out."""
    from repro.campaign.runner import run_campaign
    from repro.cli import build_campaign_parser, campaign_main
    from repro.errors import ReproError

    with pytest.raises(SystemExit) as exc:
        campaign_main(["dff", "--workers", "0", "--no-cache", "--timeout", value])
    assert exc.value.code == 2
    assert "--timeout: must be > 0, got" in capsys.readouterr().err
    with pytest.raises(ReproError, match="timeout must be > 0 seconds"):
        run_campaign([], workers=0, timeout=float(value))
    args = build_campaign_parser().parse_args(["dff", "--timeout", "inf"])
    assert args.timeout == float("inf")
    assert run_campaign([], workers=0, timeout=args.timeout).outcomes == []


@pytest.mark.parametrize("name,argv", [
    ("repro-atpg", []),
    ("repro-campaign", ["--workers", "0", "--no-cache", "--quiet"]),
])
def test_stg_file_is_refused_by_name(name, argv, tmp_path):
    """A ``.g`` file (such as a shrunk fuzz artifact) is an STG spec,
    not a netlist: both runners refuse it up front, naming the file,
    instead of failing on its ``.graph`` directive."""
    spec = tmp_path / "divergent-seed6.g"
    corpus = Path(__file__).resolve().parent / "data" / "fuzz"
    spec.write_text((corpus / "000-choice-minimal.g").read_text())
    proc = run_entry_point(name, [str(spec)] + argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert (
        f"error: {spec}: STG specs are accepted only as bundled benchmark "
        "names"
    ) in proc.stderr
    assert ".graph" not in proc.stderr


def test_retired_liveness_flags_exit_2(capsys):
    """Jobs are policed by the per-job ``--timeout`` alone: the live
    dashboard and the silent-worker cull are gone."""
    from repro.cli import campaign_main

    for entry, argv in (
        (campaign_main, ["dff", "--workers", "0", "--no-cache", "--dashboard"]),
        (campaign_main, ["dff", "--workers", "0", "--no-cache",
                         "--hang-timeout", "5"]),
    ):
        with pytest.raises(SystemExit) as exc:
            entry(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,field", [
    ("--k", "-1", "k"),
    ("--deadline", "-5", "deadline_seconds"),
    ("--deadline", "nan", "deadline_seconds"),
    ("--deadline", "inf", "deadline_seconds"),
])
def test_out_of_range_option_exits_1_naming_the_field(flag, value, field, capsys):
    """NaN passes every ``< 0`` test and an ``inf`` deadline never
    fires, and neither serializes as JSON: both are refused."""
    assert main(["dff", flag, value]) == 1
    bound = "finite" if value == "inf" else ">= 0"
    assert f"AtpgOptions.{field} must be {bound}" in capsys.readouterr().err


def test_campaign_logs_whole_job_lookups(tmp_path, capsys):
    """``repro-campaign`` keeps the store's hit log, so ``repro-cache
    stats`` counts a warm rerun's cached jobs as hits."""
    from repro.campaign.store import ResultStore
    from repro.cli import campaign_main

    argv = ["dff", "--workers", "0", "--cache-dir", str(tmp_path), "--quiet"]
    assert campaign_main(argv) == 0
    cold = ResultStore(tmp_path).stats()["lookups"]
    assert cold["hits"] == 0 and cold["misses"] > 0
    assert campaign_main(argv) == 0
    warm = ResultStore(tmp_path).stats()["lookups"]
    assert warm["hits"] == cold["misses"]
    assert warm["misses"] == cold["misses"]
