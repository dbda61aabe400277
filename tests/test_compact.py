"""Static test-set compaction: coverage-preserving, smaller."""

import pytest

from repro.benchmarks_data import load_benchmark
from repro.core.atpg import AtpgOptions
from repro.core.compact import compact_test_set
from repro.core.verify import verify_test_set
from repro.flow import Flow


@pytest.mark.parametrize("name", ["sbuf-send-ctl", "master-read", "mmu"])
def test_compaction_preserves_guaranteed_coverage(name):
    circuit = load_benchmark(name, "complex")
    # A wasteful budget to give compaction something to remove.
    result = Flow.default().run(
        circuit, AtpgOptions(seed=2, random_walks=12, walk_len=24)
    )
    before = verify_test_set(result.cssg, result.tests.tests, result.faults)
    compacted, stats = compact_test_set(
        result.cssg, result.tests.tests, result.faults
    )
    after = verify_test_set(result.cssg, compacted.tests, result.faults)
    assert after.detected >= before.detected
    assert stats["n_after"] <= stats["n_before"]
    assert stats["vectors_after"] <= stats["vectors_before"]
    assert stats["n_essential"] <= stats["n_after"]


def test_compaction_actually_removes_redundancy(celem):
    # Duplicate every generated test: the copies are pure redundancy and
    # compaction must throw at least that much away.
    result = Flow.default().run(celem, AtpgOptions(seed=0))
    doubled = result.tests.tests + [
        type(t)(t.patterns, list(t.faults), t.source) for t in result.tests.tests
    ]
    compacted, stats = compact_test_set(result.cssg, doubled, result.faults)
    assert stats["n_after"] <= len(result.tests.tests)
    assert stats["vectors_after"] < stats["vectors_before"]


def test_compacted_tests_carry_their_detections(celem):
    result = Flow.default().run(celem, AtpgOptions(seed=1))
    compacted, _ = compact_test_set(result.cssg, result.tests.tests, result.faults)
    confirm = verify_test_set(result.cssg, compacted.tests, result.faults)
    for test, hits in zip(compacted.tests, confirm.per_test):
        assert hits <= set(test.faults)


def test_empty_input(celem):
    from repro.sgraph.cssg import build_cssg

    cssg = build_cssg(celem)
    compacted, stats = compact_test_set(cssg, [], [])
    assert len(compacted) == 0
    assert stats["n_before"] == stats["n_after"] == 0
