"""Result-table rendering."""

from repro.benchmarks_data import load_benchmark
from repro.core.atpg import AtpgOptions
from repro.core.report import TableRow, format_table, result_row, to_csv, to_json
from repro.flow import Flow


def test_result_row_combines_models():
    circuit = load_benchmark("hazard", "complex")
    out_res = Flow.default().run(circuit, AtpgOptions(fault_model="output", seed=1))
    in_res = Flow.default().run(circuit, AtpgOptions(fault_model="input", seed=1))
    row = result_row("hazard", out_res, in_res)
    assert row.out_tot == out_res.n_total
    assert row.in_cov == in_res.n_covered
    assert row.rnd == in_res.n_random
    assert row.cpu >= 0
    assert row.out_fc == 1.0 and row.in_fc == 1.0


def test_result_row_without_output_run():
    circuit = load_benchmark("hazard", "complex")
    in_res = Flow.default().run(circuit, AtpgOptions(fault_model="input", seed=1))
    row = result_row("hazard", None, in_res)
    assert row.out_tot == 0 and row.out_fc == 1.0


def test_format_table_layout():
    rows = [
        TableRow("alpha", 10, 10, 20, 18, 9, 6, 3, 1.25),
        TableRow("beta", 8, 6, 12, 9, 5, 4, 0, 0.5),
    ]
    text = format_table(rows, title="Demo")
    lines = text.splitlines()
    assert lines[0] == "Demo"
    assert "example" in lines[1]
    assert any("alpha" in line and "1.25" in line for line in lines)
    assert "Total output-stuck-at FC: 88.89%" in text
    assert "Total input-stuck-at  FC: 84.38%" in text


def test_format_table_handles_empty_totals():
    rows = [TableRow("x", 0, 0, 4, 4, 4, 0, 0, 0.1)]
    text = format_table(rows)
    assert "output-stuck-at" not in text
    assert "input-stuck-at" in text


def test_to_csv_layout():
    rows = [
        TableRow("alpha", 10, 10, 20, 18, 9, 6, 3, 1.25),
        TableRow("beta", 8, 6, 12, 9, 5, 4, 0, 0.5),
    ]
    lines = to_csv(rows).splitlines()
    assert lines[0] == (
        "name,out_tot,out_cov,out_fc,in_tot,in_cov,in_fc,"
        "rnd,three_ph,sim,cpu,aborted,abort_reasons,"
        "cssg_method,cssg_states,cssg_edges,tcsg_states,"
        "peak_bdd_nodes,gc_passes,reorders,image_iters,models"
    )
    assert lines[1].startswith("alpha,10,10,1.0,20,18,0.9,9,6,3,1.25")
    assert len(lines) == 3


def test_row_carries_cssg_and_symbolic_columns():
    """The paper-table state counts and kernel stats reach the CSV/JSON
    rows when the CSSG was built symbolically."""
    circuit = load_benchmark("hazard", "complex")
    options = AtpgOptions(fault_model="input", seed=1, cssg_method="symbolic")
    in_res = Flow.default().run(circuit, options)
    row = result_row("hazard", None, in_res)
    assert row.cssg_method == "symbolic"
    assert row.cssg_states == in_res.cssg.n_states
    assert row.cssg_edges == in_res.cssg.n_edges
    assert row.tcsg_states > 0
    assert row.peak_bdd_nodes > 0
    assert row.image_iters > 0
    data = row.to_dict()
    for key in ("cssg_method", "cssg_states", "tcsg_states", "peak_bdd_nodes"):
        assert key in data
    # An explicit construction reports its method with zeroed kernel stats.
    exact = Flow.default().run(
        circuit, AtpgOptions(fault_model="input", seed=1, cssg_method="exact")
    )
    row2 = result_row("hazard", None, exact)
    assert row2.cssg_method == "exact"
    assert row2.peak_bdd_nodes == 0 and row2.tcsg_states == 0


def test_to_json_round_trips_rows():
    import json

    rows = [TableRow("alpha", 10, 10, 20, 18, 9, 6, 3, 1.25)]
    data = json.loads(to_json(rows))
    assert data == [rows[0].to_dict()]
    assert data[0]["in_fc"] == 0.9


def test_campaign_rows_match_result_row_on_aborted_runs():
    """Campaign rows and ``result_row`` come from one builder: on a
    deadline-cut two-model campaign they agree in every column but
    ``cpu``, the abort ledger included."""
    from dataclasses import replace

    from repro.campaign import run_campaign
    from repro.campaign.artifacts import rows_from_outcomes
    from repro.campaign.plan import CampaignSpec, expand

    spec = CampaignSpec(
        benchmarks=["ebergen"], options=AtpgOptions(deadline_seconds=0.0)
    )
    report = run_campaign(expand(spec), workers=0, store=None)
    (row,) = rows_from_outcomes(report.outcomes)
    result = {o.job.fault_model: o.result() for o in report.outcomes}
    expected = result_row(row.name, result["output"], result["input"])
    assert row.aborted == result["input"].n_aborted > 0
    assert row.abort_reasons == f"budget:{row.aborted}"
    assert replace(row, cpu=0.0) == replace(expected, cpu=0.0)
