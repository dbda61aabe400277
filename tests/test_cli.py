"""The repro-atpg command line interface."""

import json

import pytest

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
