"""JSON round-trip contract for ATPG results (the cache's foundation)."""

import dataclasses
import json

import pytest

from repro.benchmarks_data import load_benchmark
from repro.circuit.faults import Fault
from repro.core.atpg import (
    RESULT_SCHEMA_VERSION,
    AtpgOptions,
    AtpgResult,
    FaultStatus,
)
from repro.core.sequences import Test
from repro.errors import ReproError
from repro.flow import Flow


@pytest.fixture(scope="module")
def ebergen_result():
    circuit = load_benchmark("ebergen", "complex")
    return circuit, Flow.default().run(circuit, AtpgOptions(seed=3))


def test_fault_round_trip():
    fault = Fault("input", 5, 2, 1)
    assert Fault.from_json(fault.to_json()) == fault


def test_test_round_trip():
    test = Test((3, 1, 2), [Fault("output", 4, 4, 0)], source="random")
    back = Test.from_json_dict(test.to_json_dict())
    assert back == test
    assert isinstance(back.patterns, tuple)


def test_fault_status_round_trip():
    status = FaultStatus(Fault("input", 1, 0, 1), "detected", "rnd", 7)
    assert FaultStatus.from_json_dict(status.to_json_dict()) == status
    none_ix = FaultStatus(Fault("output", 2, 2, 0), "undetectable")
    assert FaultStatus.from_json_dict(none_ix.to_json_dict()) == none_ix


def test_fault_status_reason_round_trip():
    """Schema v2: the abort reason survives serialization."""
    for reason in ("budget", "product-states", "unprocessed"):
        status = FaultStatus(Fault("input", 3, 1, 0), "aborted", reason=reason)
        back = FaultStatus.from_json_dict(status.to_json_dict())
        assert back == status and back.reason == reason
    assert RESULT_SCHEMA_VERSION == 5


def test_cssg_block_round_trips_symbolic_facts():
    """Schema v3: the resolved method and the symbolic-kernel facts
    survive serialization into the CssgSummary."""
    circuit = load_benchmark("hazard", "complex")
    result = Flow.default().run(
        circuit, AtpgOptions(seed=1, cssg_method="symbolic")
    )
    data = result.to_json_dict()
    block = data["cssg"]
    assert block["method"] == "symbolic"
    assert block["n_tcsg_states"] > 0
    assert block["peak_bdd_nodes"] > 0
    assert block["n_image_iterations"] > 0
    back = AtpgResult.from_json_dict(data, circuit)
    assert back.cssg.method == "symbolic"
    assert back.cssg.n_tcsg_states == block["n_tcsg_states"]
    assert back.to_json_dict() == data


def test_aborted_result_round_trips_reasons():
    """A deadline-cut partial result keeps its abort ledger through
    JSON (the campaign cache path for bounded runs)."""
    circuit = load_benchmark("ebergen", "complex")
    result = Flow.default().run(
        circuit, AtpgOptions(seed=1, deadline_seconds=0.0)
    )
    assert result.n_aborted == result.n_total
    back = AtpgResult.from_json_dict(result.to_json_dict(), circuit)
    assert back.to_json_dict() == result.to_json_dict()
    assert back.abort_reasons() == {"budget": result.n_total}


def test_options_round_trip():
    opts = AtpgOptions(fault_model="output", seed=9, k=12, collapse=True)
    assert AtpgOptions.from_json_dict(opts.to_json_dict()) == opts


def test_flat_dataclass_dicts_match_asdict_key_for_key():
    """The flat dataclasses build their dicts from ``fields()``: the
    same keys, order and values ``dataclasses.asdict`` gives, so job
    keys, payloads and CSSG cache docs stay byte-identical."""
    from repro.campaign.cohort import IncrementalStats, cssg_from_doc, cssg_to_doc
    from repro.sgraph.cssg import build_cssg

    def same(got, obj):
        assert json.dumps(got) == json.dumps(dataclasses.asdict(obj))

    opts = AtpgOptions(fault_model="bridging", k=9, deadline_seconds=1.5)
    same(opts.to_json_dict(), opts)
    stats = IncrementalStats(cohorts_total=4, cohorts_reused=3, cssg_reused=True)
    same(stats.to_json_dict(), stats)
    circuit = load_benchmark("ebergen", "complex")
    cssg = build_cssg(circuit, method="hybrid")
    doc = cssg_to_doc(cssg)
    same(doc["stats"], cssg.stats)
    # A doc written while CssgStats still had max_settle_path loads.
    doc["stats"]["max_settle_path"] = 3
    back = cssg_from_doc(circuit, doc)
    assert back is not None and back.stats == cssg.stats
    assert back.edges == cssg.edges


def test_options_reject_unknown_fields():
    with pytest.raises(ReproError, match="unknown AtpgOptions"):
        AtpgOptions.from_json_dict({"fault_model": "input", "bogus": 1})


@pytest.mark.parametrize("field,value", [
    ("k", -1),
    ("random_walks", -1),
    ("walk_len", -1),
    ("deadline_seconds", -5.0),
    ("max_input_changes", 0),
])
def test_options_reject_out_of_range_values(field, value):
    bound = ">= 1" if field == "max_input_changes" else ">= 0"
    with pytest.raises(ReproError, match=f"AtpgOptions.{field} must be {bound}"):
        AtpgOptions(**{field: value})
    with pytest.raises(ReproError, match=f"AtpgOptions.{field}"):
        AtpgOptions.from_json_dict({field: value})


def test_options_boundary_values_stay_legal_and_serialize_unchanged():
    opts = AtpgOptions(
        k=0, random_walks=0, walk_len=0, deadline_seconds=0.0,
        max_input_changes=1,
    )
    assert AtpgOptions.from_json_dict(opts.to_json_dict()) == opts
    assert list(AtpgOptions().to_json_dict()) == [
        f.name for f in dataclasses.fields(AtpgOptions)
    ]


def test_result_round_trip_is_a_fixed_point(ebergen_result):
    circuit, result = ebergen_result
    data = result.to_json_dict()
    assert data["schema_version"] == RESULT_SCHEMA_VERSION
    back = AtpgResult.from_json_dict(data, circuit)
    assert back.to_json_dict() == data  # canonical form: exact fixed point


def test_result_round_trip_equality(ebergen_result):
    circuit, result = ebergen_result
    back = AtpgResult.from_json_dict(result.to_json_dict(), circuit)
    assert back.options == result.options
    assert back.faults == result.faults
    assert back.statuses == result.statuses  # per-fault detection records
    assert [t.patterns for t in back.tests] == [t.patterns for t in result.tests]
    assert [t.faults for t in back.tests] == [t.faults for t in result.tests]
    assert (back.n_total, back.n_covered, back.coverage) == (
        result.n_total,
        result.n_covered,
        result.coverage,
    )
    assert back.cssg == result.cssg.summary()
    assert back.summary() == result.summary()


def test_result_survives_json_text(ebergen_result):
    circuit, result = ebergen_result
    text = json.dumps(result.to_json_dict())
    back = AtpgResult.from_json_dict(json.loads(text), circuit)
    assert back.to_json_dict() == result.to_json_dict()


def test_result_rejects_wrong_schema_version(ebergen_result):
    circuit, result = ebergen_result
    data = result.to_json_dict()
    data["schema_version"] = RESULT_SCHEMA_VERSION + 1
    with pytest.raises(ReproError, match="schema version"):
        AtpgResult.from_json_dict(data, circuit)


def test_result_rejects_wrong_circuit(ebergen_result):
    circuit, result = ebergen_result
    other = load_benchmark("hazard", "complex")
    with pytest.raises(ReproError, match="serialized result is for"):
        AtpgResult.from_json_dict(result.to_json_dict(), other)
