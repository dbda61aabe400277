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
    "repro-fuzz": "from repro.cli import fuzz_main as entry",
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
    ("repro-fuzz", ["-n", "1", "--workers", "0", "--no-cache", "--quiet"]),
    ("repro-cache", ["--cache-dir", "{tmp}", "stats"]),
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
    ("repro-fuzz", ["-n", "2", "--workers", "-1", "--no-cache"]),
])
def test_negative_workers_exit_2(name, argv):
    proc = run_entry_point(name, argv)
    assert proc.returncode == 2
    assert "--workers: must be >= 0, got -" in proc.stderr


@pytest.mark.parametrize("flag,value,field", [
    ("--k", "-1", "k"),
    ("--deadline", "-5", "deadline_seconds"),
])
def test_out_of_range_option_exits_1_naming_the_field(flag, value, field, capsys):
    assert main(["dff", flag, value]) == 1
    assert f"AtpgOptions.{field} must be >= 0" in capsys.readouterr().err


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
