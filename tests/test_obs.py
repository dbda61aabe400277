"""The observability subsystem: metrics, tracing, exposition.

Every test here restores the process-global switches (ambient registry,
enabled flag, ambient tracer) on exit — telemetry must never leak into
the determinism-sensitive tests of the rest of the suite.
"""

import json
import os

import pytest

from repro.benchmarks_data import load_benchmark
from repro.core.atpg import AtpgOptions, AtpgResult
from repro.errors import ReproError
from repro.flow import Flow
from repro.obs import metrics as obs_metrics
from repro.obs.export import (
    atomic_write_text,
    parse_prometheus_text,
    to_json_text,
    to_prometheus_text,
    write_metrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    format_profile,
    get_tracer,
    set_tracer,
    use_tracer,
)

FAST = dict(random_walks=1, walk_len=1)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Isolate the process-global telemetry state per test."""
    previous_registry = obs_metrics.set_registry(MetricsRegistry())
    obs_metrics.disable()
    previous_tracer = set_tracer(None)
    try:
        yield
    finally:
        obs_metrics.set_registry(previous_registry)
        obs_metrics.disable()
        set_tracer(previous_tracer)


# -- registry ---------------------------------------------------------------


def test_counter_basics():
    reg = MetricsRegistry()
    jobs = reg.counter("jobs_total", "Jobs.", ("status",))
    jobs.labels("ran").inc()
    jobs.labels("ran").inc(2)
    jobs.labels("cached").inc()
    assert reg.value("jobs_total", "ran") == 3.0
    assert reg.value("jobs_total", "cached") == 1.0
    assert reg.value("jobs_total", "failed") == 0.0  # unseen series

    steps = reg.counter("steps_total")
    steps.inc(7)
    assert steps.value == 7.0 == reg.value("steps_total")


def test_registry_get_or_create_and_shape_conflicts():
    reg = MetricsRegistry()
    a = reg.counter("x_total", "X.", ("k",))
    assert reg.counter("x_total", "X.", ("k",)) is a
    with pytest.raises(ReproError, match="already registered"):
        reg.counter("x_total", label_names=("other",))
    with pytest.raises(ReproError, match="bind them"):
        a.inc()  # labeled family used without binding labels
    with pytest.raises(ReproError, match="label value"):
        a.labels("k", "extra")


def test_snapshot_merge_is_the_fleet_transport():
    worker1, worker2, parent = (
        MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    )
    for i, reg in enumerate((worker1, worker2), start=1):
        reg.counter("faults_total", "F.", ("status",)).labels("detected").inc(i)
        reg.counter("steps_total").inc(10 * i)
    for reg in (worker1, worker2):
        parent.merge_snapshot(json.loads(json.dumps(reg.snapshot())))
    # every sample adds
    assert parent.value("faults_total", "detected") == 3.0
    assert parent.value("steps_total") == 30.0
    assert list(parent.snapshot()) == ["counters"]


# -- exposition -------------------------------------------------------------


def test_prometheus_text_round_trips_through_parser():
    reg = MetricsRegistry()
    reg.counter("c_total", "A counter.", ("k",)).labels('we"ird\n').inc(2)
    reg.counter("fractional_total").inc(1.5)
    text = to_prometheus_text(reg)
    series = parse_prometheus_text(text)
    assert series["c_total"][(("k", 'we"ird\n'),)] == 2.0
    assert series["fractional_total"][()] == 1.5
    # snapshots render identically to the live registry
    assert to_prometheus_text(reg.snapshot()) == text


def test_parse_prometheus_rejects_malformed_lines():
    with pytest.raises(ValueError, match="malformed comment"):
        parse_prometheus_text("# BOGUS x\n")
    with pytest.raises(ValueError):
        parse_prometheus_text("name{k=unquoted} 1\n")


def test_write_metrics_picks_format_from_extension(tmp_path):
    reg = MetricsRegistry()
    reg.counter("c_total").inc()
    prom = tmp_path / "m.prom"
    jsn = tmp_path / "m.json"
    assert write_metrics(str(prom), reg) == "prom"
    assert write_metrics(str(jsn), reg) == "json"
    assert "c_total 1" in prom.read_text()
    assert json.loads(jsn.read_text()) == reg.snapshot()
    assert to_json_text(reg).endswith("\n")
    # atomic writes leave no temp droppings behind
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


# -- tracer -----------------------------------------------------------------


def test_tracer_spans_nest_and_profile_accounts_self_time(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", circuit="dff"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner") as span:
            span.set("iteration", 2)
    inner, outer = tracer.spans[0], tracer.spans[-1]
    assert outer["name"] == "outer" and outer["parent_id"] == -1
    assert inner["parent_id"] == outer["span_id"]
    assert tracer.spans[1]["attrs"] == {"iteration": 2}

    rows = {r["name"]: r for r in tracer.profile()}
    assert rows["inner"]["calls"] == 2
    # outer's self time excludes the nested inner time
    assert rows["outer"]["self_seconds"] <= rows["outer"]["total_seconds"]

    path = tmp_path / "spans.jsonl"
    assert tracer.write_jsonl(str(path)) == 3
    lines = path.read_text().splitlines()
    assert [json.loads(l)["name"] for l in lines] == ["inner", "inner", "outer"]

    table = format_profile(tracer.profile())
    assert "span" in table and "inner" in table and "self%" in table


def test_ambient_tracer_scoping():
    assert get_tracer() is NULL_TRACER
    with use_tracer() as tracer:
        assert get_tracer() is tracer
        with get_tracer().span("x"):
            pass
    assert get_tracer() is NULL_TRACER
    assert tracer.spans[0]["name"] == "x"
    # the null tracer records nothing and costs nothing
    with NULL_TRACER.span("ignored") as span:
        span.set("k", 1)


def test_error_inside_span_is_recorded_and_propagates():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("doomed"):
            raise RuntimeError("boom")
    assert tracer.spans[0]["error"] == "RuntimeError"


# -- listener isolation ----------------------------------------------------


def test_raising_listener_is_unsubscribed_with_one_warning():
    circuit = load_benchmark("dff", "complex")
    options = AtpgOptions(seed=1, **FAST)
    stream = []
    Flow.default().run(circuit, options, listeners=[stream.append])
    calls = []

    def bad(event):
        calls.append(event)
        raise ValueError("broken consumer")

    seen = []
    with pytest.warns(RuntimeWarning, match="broken consumer") as caught:
        Flow.default().run(circuit, options, listeners=[bad, seen.append])
    # the broken listener is gone after its first event: one warning...
    assert len(calls) == 1
    assert sum("broken consumer" in str(w.message) for w in caught) == 1
    # ...and the healthy one beside it saw the whole stream, first event too
    assert seen == stream


def test_flow_completes_with_raising_listener():
    circuit = load_benchmark("dff", "complex")
    boom = lambda event: (_ for _ in ()).throw(RuntimeError("io error"))
    with pytest.warns(RuntimeWarning, match="io error"):
        result = Flow.default().run(
            circuit, AtpgOptions(seed=1, **FAST), listeners=[boom]
        )
    assert result.n_total > 0  # the run finished normally


# -- flow integration -------------------------------------------------------


def run_dff(listeners=(), **opts):
    circuit = load_benchmark("dff", "complex")
    return Flow.default().run(
        circuit, AtpgOptions(seed=1, **FAST, **opts), listeners=listeners
    )


def payload(result):
    """``result``'s serialized form minus its one wall-clock field."""
    doc = result.to_json_dict()
    doc.pop("cpu_seconds")
    return doc


def test_default_run_has_no_telemetry_block():
    result = run_dff()
    assert "telemetry" not in result.to_json_dict()
    # A stray block, as in older --json output, is ignored on read.
    data = dict(result.to_json_dict(), telemetry={"stage_seconds": {}})
    back = AtpgResult.from_json_dict(data, result.circuit)
    assert back.to_json_dict() == result.to_json_dict()


@pytest.mark.parametrize("observe", ["metrics", "tracer", "both"])
def test_observed_run_payload_equals_plain_run(observe):
    """Observation never reaches the result: with metrics armed, under
    a recording tracer, or both, the payload is a plain run's."""
    plain = payload(run_dff(cssg_method="symbolic"))
    if observe != "tracer":
        obs_metrics.enable(MetricsRegistry())
    with use_tracer(NULL_TRACER if observe == "metrics" else Tracer()):
        observed = payload(run_dff(cssg_method="symbolic"))
    assert observed == plain


def test_metrics_enabled_run_counts_faults():
    reg = obs_metrics.enable(MetricsRegistry())
    result = run_dff()
    # the MetricsConsumer-derived verdict counts match the result's
    family = reg.get("repro_flow_faults_classified_total")
    total = sum(ch.value for _, ch in family.children())
    assert total == result.n_total
    assert reg.value("repro_flow_events_total", "StageFinished") > 0
    assert reg.value("repro_flow_stage_runs_total", "random-tpg") == 1


def test_traced_run_produces_stage_spans():
    with use_tracer() as tracer:
        run_dff()
    names = {rec["name"] for rec in tracer.spans}
    assert {"flow.run", "stage.cssg", "stage.random-tpg",
            "cssg.traverse"} <= names
    flow_span = next(r for r in tracer.spans if r["name"] == "flow.run")
    assert flow_span["attrs"]["circuit"] == "dff-complex"


def test_symbolic_run_traces_image_iterations_and_bdd_cache():
    registry = MetricsRegistry()
    obs_metrics.enable(registry)
    with use_tracer() as tracer:
        result = run_dff(cssg_method="symbolic")
    names = [rec["name"] for rec in tracer.spans]
    assert "cssg.reach" in names and "cssg.image" in names
    # The build's final flush lands the kernel series in the registry.
    lookups = registry.value("repro_bdd_cache_lookups_total")
    assert lookups >= registry.value("repro_bdd_cache_hits_total") >= 0
    assert lookups > 0
    assert result.cssg.summary().peak_bdd_nodes > 0  # a result fact


def test_undetectable_classifier_publishes_bdd_cache_counters():
    """The classifier's symbolic manager publishes its cache counters
    once, after classification: vbe10b two-level's reachable set alone
    never flushed them."""
    from repro.circuit.faults import input_fault_universe
    from repro.ext.undetectable import classify_undetectable
    from repro.sgraph.cssg import build_cssg

    cssg = build_cssg(load_benchmark("vbe10b", "two-level"))
    faults = input_fault_universe(cssg.circuit)
    registry = obs_metrics.enable(MetricsRegistry())
    classify_undetectable(cssg, faults)
    lookups = registry.value("repro_bdd_cache_lookups_total")
    assert lookups > 0
    assert lookups >= registry.value("repro_bdd_cache_hits_total")


def test_event_stream_identical_with_and_without_metrics():
    """Determinism: subscribing telemetry never changes the stream."""

    def stream():
        events = []
        run_dff(listeners=[events.append])
        return events

    plain = stream()
    obs_metrics.enable(MetricsRegistry())
    with use_tracer():
        observed = stream()
    assert plain == observed


# -- consumers --------------------------------------------------------------


class _Pipe:
    """A not-a-TTY text sink."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)

    def flush(self):
        pass

    def isatty(self):
        return False

    @property
    def text(self):
        return "".join(self.chunks)


def test_progress_line_non_tty_emits_plain_lines():
    from repro.flow.consumers import ProgressLine

    pipe = _Pipe()
    with ProgressLine(stream=pipe, plain_interval=3600.0) as line:
        line({"event": "StageStarted", "stage": "random-tpg", "n_remaining": 8})
        # throttled: ticks inside the interval produce no output
        line({"event": "ProgressTick", "stage": "random-tpg",
              "done": 1, "total": 8, "covered": 0})
        line({"event": "StageFinished", "stage": "random-tpg", "detail": ""})
    out = pipe.text
    assert "\r" not in out  # never the TTY carriage-return dance
    lines = out.splitlines()
    assert len(lines) == 3  # start boundary, finish boundary, close
    assert all(l.startswith("[random-tpg]") for l in lines)


def test_trace_writer_atomic_publish_and_crash_safety(tmp_path, monkeypatch):
    """The one atomic writer (span files, metrics, store entries): the
    target appears only at ``os.replace``, after an fsync of the temp
    file for span and metrics files, and a write that raises leaves
    neither file behind.  Store entries carry a checksum instead of
    being fsynced."""
    target = tmp_path / "spans.jsonl"
    real_replace = os.replace
    steps = []

    def spy_fsync(fd):
        steps.append("fsync")

    def spy_replace(src, dst):
        assert not os.path.exists(dst)  # nothing at the target before publish
        steps.append(os.path.basename(src))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    atomic_write_text(str(target), "{}\n")
    assert steps[0] == "fsync" and steps[1].startswith(".obs-")
    assert target.read_text() == "{}\n"

    # store entries: same writer, `.<key[:8]>-….tmp` names (what prune
    # reaps), no fsync, compact JSON bytes plus the checksum trailer
    import zlib

    from repro.campaign.store import ResultStore

    steps.clear()
    key = "ab12cd34" * 8
    path = ResultStore(tmp_path / "cache").put(key, {"b": 1, "a": [1, 2]})
    assert len(steps) == 1  # the replace alone: nothing was fsynced
    assert steps[0].startswith(f".{key[:8]}-") and steps[0].endswith(".tmp")
    body = b'{"b":1,"a":[1,2]}'
    assert path.read_bytes() == body + b"\n%08x\n" % zlib.crc32(body)

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    doomed = tmp_path / "never.jsonl"
    with pytest.raises(OSError):
        atomic_write_text(str(doomed), "{}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "spans.jsonl"]


def test_tracer_event_files_on_innermost_span():
    tracer = Tracer()
    tracer.event({"event": "Orphan"})  # no span open: dropped
    with tracer.span("outer"):
        tracer.event({"event": "A"})
        with tracer.span("inner"):
            tracer.event({"event": "B", "stage": "s"})
        with tracer.span("quiet"):
            pass
    inner, quiet, outer = tracer.spans
    assert [e["event"] for e in outer["events"]] == ["A"]
    assert inner["events"][0]["stage"] == "s"
    assert list(inner["events"][0]) == ["t", "event", "stage"]
    assert "events" not in quiet  # only spans that have events carry a list
    assert outer["events"][0]["t"] < inner["events"][0]["t"]


# -- campaign integration ---------------------------------------------------


def test_campaign_collect_telemetry_aggregates_and_keeps_cache_clean(tmp_path):
    from repro.campaign import CampaignSpec, ResultStore, expand, run_campaign

    spec = CampaignSpec(
        benchmarks=["dff"],
        fault_models=("output", "input"),
        options=AtpgOptions(**FAST),
    )
    jobs = expand(spec)
    store = ResultStore(tmp_path / "cache")

    done_order = []
    with obs_metrics.armed():
        report = run_campaign(
            jobs, workers=0, store=store,
            progress=lambda outcome, done, total: done_order.append(done),
        )
    assert report.n_ran == len(jobs)
    assert done_order == [1, 2]

    reg = obs_metrics.get_registry()
    assert reg.value("repro_campaign_jobs_total", "ran") == len(jobs)
    assert reg.value("repro_campaign_cache_requests_total", "miss") == len(jobs)
    family = reg.get("repro_flow_faults_classified_total")
    classified = sum(ch.value for _, ch in family.children())
    assert classified == sum(o.payload["n_total"] for o in report.outcomes)

    with obs_metrics.armed():
        warm = run_campaign(jobs, workers=0, store=store)
    assert warm.n_cached == len(jobs)
    assert reg.value("repro_campaign_cache_requests_total", "hit") == len(jobs)

    # the cache never stores telemetry: warm payloads are canonical
    for job in jobs:
        cached = store.get(job.key)
        assert cached is not None and "telemetry" not in cached


def _dff_hazard_jobs():
    from repro.campaign import CampaignSpec, expand

    return expand(
        CampaignSpec(
            benchmarks=["dff", "hazard"],
            fault_models=("output", "input"),
            options=AtpgOptions(**FAST),
        )
    )


def test_in_process_telemetry_campaign_payloads_equal_plain_campaign():
    from repro.campaign import run_campaign

    jobs = _dff_hazard_jobs()
    plain = run_campaign(jobs, workers=0)
    with obs_metrics.armed():
        observed = run_campaign(jobs, workers=0)
    assert observed.all_ok and observed.n_ran == len(jobs)
    for a, b in zip(plain.outcomes, observed.outcomes):
        assert b.metrics is None  # in-process jobs record straight in
        assert {**a.payload, "cpu_seconds": 0} == {**b.payload, "cpu_seconds": 0}


def test_campaign_meters_and_traces_each_cssg_construction(tmp_path):
    """The runner builds a circuit's CSSG once for all its jobs, outside
    ``Flow.run``.  Each construction is still one ``"cssg"`` stage run
    and one ``stage.cssg`` span; a memo or store hit is neither."""
    import shutil

    from repro.campaign import ResultStore, run_campaign

    jobs = _dff_hazard_jobs()
    store = ResultStore(tmp_path / "cache")

    def constructions(**campaign):
        reg = obs_metrics.enable(MetricsRegistry())
        with use_tracer() as tracer:
            report = run_campaign(jobs, workers=0, **campaign)
        assert report.all_ok and report.n_ran == len(jobs)
        spans = sum(rec["name"] == "stage.cssg" for rec in tracer.spans)
        runs = reg.value("repro_flow_stage_runs_total", "cssg")
        assert spans == runs
        return spans

    assert constructions(store=None) == 2  # the second model hits the memo
    assert constructions(store=store, incremental=True) == 2
    shutil.rmtree(store.root / "results")
    shutil.rmtree(store.root / "cohorts")
    assert constructions(store=store, incremental=True) == 0  # store hits


def test_campaign_pool_merges_worker_snapshots(tmp_path):
    from repro.campaign import CampaignSpec, ResultStore, expand, run_campaign

    spec = CampaignSpec(benchmarks=["dff"], options=AtpgOptions(**FAST))
    jobs = expand(spec)
    store = ResultStore(tmp_path / "cache")
    with obs_metrics.armed():
        report = run_campaign(jobs, workers=1, store=store)
    assert report.n_ran == len(jobs)
    reg = obs_metrics.get_registry()
    # worker-side flow metrics crossed the process boundary exactly once
    family = reg.get("repro_flow_faults_classified_total")
    classified = sum(ch.value for _, ch in family.children())
    assert classified == sum(o.payload["n_total"] for o in report.outcomes)
    assert reg.value("repro_campaign_jobs_total", "ran") == len(jobs)
    for job in jobs:
        assert "telemetry" not in store.get(job.key)


# -- determinism ------------------------------------------------------------


def test_cli_metrics_files_are_byte_identical_and_counters_only(tmp_path, capsys):
    """Metrics count, spans time: two runs of the same work write the
    same exposition file, byte for byte, and it declares no type but
    ``counter``."""
    from repro.cli import main

    first, second = tmp_path / "a.prom", tmp_path / "b.prom"
    assert main(["ebergen", "--metrics", str(first)]) == 0
    assert main(["ebergen", "--metrics", str(second)]) == 0
    text = first.read_text()
    assert second.read_text() == text
    types = [l.split()[3] for l in text.splitlines() if l.startswith("# TYPE")]
    assert types and set(types) == {"counter"}
    assert not any("seconds" in name or "per_sec" in name
                   for name in parse_prometheus_text(text))


def test_cold_in_process_campaigns_record_equal_snapshots():
    from repro.campaign import run_campaign

    jobs = _dff_hazard_jobs()
    snapshots = []
    for _ in range(2):
        obs_metrics.set_registry(MetricsRegistry())
        with obs_metrics.armed():
            run_campaign(jobs, workers=0)
        snapshots.append(obs_metrics.get_registry().snapshot())
    assert snapshots[0] == snapshots[1]
    assert list(snapshots[0]) == ["counters"] and snapshots[0]["counters"]


# -- CLI --------------------------------------------------------------------


def test_cli_metrics_spans_and_self_profile(tmp_path, capsys):
    from repro.cli import main

    metrics = tmp_path / "m.prom"
    spans = tmp_path / "spans.jsonl"
    assert main([
        "dff", "--metrics", str(metrics), "--spans", str(spans),
        "--self-profile",
    ]) == 0
    err = capsys.readouterr().err
    assert "self(s)" in err and "flow.run" in err  # the self-profile table
    series = parse_prometheus_text(metrics.read_text())
    assert any(n.startswith("repro_flow_") for n in series)
    records = [json.loads(l) for l in spans.read_text().splitlines()]
    assert any(r["name"] == "flow.run" for r in records)
    # the CLI restored the process-global switches on the way out
    assert not obs_metrics.enabled()
    assert get_tracer() is NULL_TRACER


def test_cli_profile_writes_pstats(tmp_path, capsys):
    import pstats

    from repro.cli import main

    out = tmp_path / "run.pstats"
    assert main(["dff", "--profile", str(out)]) == 0
    assert "cumulative" in capsys.readouterr().err
    stats = pstats.Stats(str(out))
    assert stats.total_calls > 0


def test_campaign_cli_dashboard_and_metrics(tmp_path, capsys, monkeypatch):
    from repro.cli import campaign_main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    metrics = tmp_path / "metrics.json"
    args = [
        "dff", "--models", "input", "--workers", "0",
        "--random-walks", "1", "--walk-len", "1",
        "--out", str(tmp_path / "art"),
        "--metrics", str(metrics),
    ]
    assert campaign_main(args) == 0
    err = capsys.readouterr().err
    assert "[1/1] " in err and ": ran (" in err  # the per-job progress line
    snap = json.loads(metrics.read_text())
    names = {rec["name"] for rec in snap["counters"]}
    assert "repro_campaign_jobs_total" in names

    # warm rerun: everything cached, and the metrics say so
    assert campaign_main(args) == 0
    err = capsys.readouterr().err
    assert "[1/1] " in err and ": cached" in err
    cache = next(
        rec for rec in json.loads(metrics.read_text())["counters"]
        if rec["name"] == "repro_campaign_cache_requests_total"
    )
    assert {tuple(lv): v for lv, v in cache["samples"]}[("hit",)] == 1
