"""Self-checks of the benchmark harness, plus one known crash.

Run explicitly (the file name keeps it out of the tier-1 collection)::

    python3 -m pytest perfbench/bench_selftest.py -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from repro.campaign.plan import CampaignSpec, expand  # noqa: E402
from repro.campaign.runner import execute_job_incremental  # noqa: E402
from repro.campaign.store import ResultStore  # noqa: E402


def _bound_functions():
    return [
        vars(owner)[attr]
        for owner, attr in (layers._resolve(t) for _, t, _ in layers.BINDINGS)
    ]


def test_wrappers_install_and_restore():
    before = _bound_functions()
    with layers.installed(layers.Tracer()):
        during = _bound_functions()
    assert [f.__wrapped__ for f in during] == before
    assert _bound_functions() == before


def test_missing_binding_fails_loudly():
    with pytest.raises(RuntimeError, match="no longer exists"):
        layers._resolve("repro.stg.synthesis:no_such_function")


def test_self_time_excludes_nested_spans(monkeypatch):
    ticks = iter(range(10))
    monkeypatch.setattr(layers, "perf_counter", lambda: float(next(ticks)))
    tracer = layers.Tracer()
    inner = tracer.wrap("inner", lambda: None, None)
    outer = tracer.wrap("outer", lambda: inner(), None)
    outer()  # outer spans ticks 0..3, inner 1..2
    assert tracer.self_s == {"inner": 1.0, "outer": 2.0}
    assert tracer.calls == {"inner": 1, "outer": 1}


def test_benchmark_json_lists_every_layer_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        layers.LAYER_METRICS
    )


@pytest.mark.xfail(
    raises=IndexError,
    strict=True,
    reason="cohort.merge_payload indexes into an empty fault universe",
)
def test_incremental_rerun_of_empty_bridging_universe(tmp_path):
    spec = CampaignSpec(benchmarks=["alloc-outbound"], fault_models=("bridging",))
    execute_job_incremental(expand(spec)[0], ResultStore(tmp_path))
