"""The staged flow API: parity, budgets, events, composition."""

import io
import json
import warnings

import pytest

from repro.benchmarks_data import TABLE1_NAMES, load_benchmark
from repro.circuit.faults import fault_universe
from repro.core.atpg import AtpgOptions, cssg_for
from repro.flow import (
    Budget,
    BudgetExhausted,
    FaultClassified,
    Flow,
    ProgressLine,
    ProgressTick,
    RandomTpgStage,
    StageFinished,
    StageStarted,
    TestAdded,
    ThreePhaseStage,
    REASON_BUDGET,
    REASON_UNPROCESSED,
)
from repro.obs import Tracer, use_tracer


def strip_cpu(payload):
    clean = dict(payload)
    clean.pop("cpu_seconds")
    return clean


def span_events(tracer):
    """Every event filed on ``tracer``'s spans, in emission order."""
    return sorted(
        (event for rec in tracer.spans for event in rec.get("events", ())),
        key=lambda event: event["t"],
    )


# -- parity ------------------------------------------------------------------


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_flow_matches_legacy_engine_on_table1(name):
    """Tracing is observational on every Table-1 benchmark: a run under
    a recording tracer yields the untraced payload (modulo cpu_seconds)
    and files each event exactly once.
    (The ID dates from when this compared a since-removed engine facade
    with the flow.)"""
    circuit = load_benchmark(name, "complex")
    options = AtpgOptions(seed=0)
    plain = Flow.default().run(circuit, options)
    seen = []
    with use_tracer(Tracer()) as tracer:
        traced = Flow.default().run(circuit, options, listeners=[seen.append])
    assert strip_cpu(traced.to_json_dict()) == strip_cpu(plain.to_json_dict())
    assert len(span_events(tracer)) == len(seen)


def test_flow_matches_engine_with_collapse_and_output_model():
    """Passing the fault universe and a pre-built CSSG explicitly (how
    callers share one construction) changes nothing in the result."""
    circuit = load_benchmark("converta", "complex")
    options = AtpgOptions(fault_model="output", seed=5, collapse=True)
    explicit = Flow.default().run(
        circuit,
        options,
        faults=fault_universe(circuit, "output"),
        cssg=cssg_for(circuit, options),
    )
    assert strip_cpu(Flow.default().run(circuit, options).to_json_dict()) == (
        strip_cpu(explicit.to_json_dict())
    )


# -- budgets -----------------------------------------------------------------


def _mid_run_deadline():
    """A fake-clock deadline that expires mid-run on vbe6a/two-level:
    the clock advances one second per read, a full run reads it 27
    times, and the deadline passes at the eleventh read, during
    three-phase."""
    clock = iter(float(i) for i in range(10_000))
    return Budget(deadline_seconds=10.0, clock=lambda: next(clock))


def test_deadline_yields_valid_partial_result():
    """Acceptance: a deadline that expires mid-run on the largest
    benchmark returns a valid partial result, untried remainder aborted
    with reason 'budget'."""
    circuit = load_benchmark("vbe6a", "two-level")
    options = AtpgOptions(seed=0)
    result = Flow.default().run(circuit, options, budget=_mid_run_deadline())
    assert result.n_covered > 0, "the deadline must expire mid-run"
    # Complete ledger and consistent accounting despite the cut-off.
    assert set(result.statuses) == set(result.faults)
    assert (
        result.n_covered + result.n_undetectable + result.n_aborted
        == result.n_total
    )
    budget_aborts = [
        s for s in result.statuses.values() if s.reason == REASON_BUDGET
    ]
    assert budget_aborts, "the deadline must cut vbe6a/two-level short"
    assert all(s.status == "aborted" for s in budget_aborts)
    # The partial result serializes like any other.
    back = type(result).from_json_dict(result.to_json_dict(), circuit)
    assert strip_cpu(back.to_json_dict()) == strip_cpu(result.to_json_dict())


def test_expired_budget_aborts_everything_deterministically(celem):
    """A pre-expired (fake clock) budget classifies the whole universe
    aborted/'budget' without running any generation."""
    clock = iter(float(i) for i in range(10_000))
    budget = Budget(deadline_seconds=0.0, clock=lambda: next(clock))
    result = Flow.default().run(celem, AtpgOptions(seed=1), budget=budget)
    assert result.n_aborted == result.n_total > 0
    assert result.abort_reasons() == {REASON_BUDGET: result.n_total}
    assert len(result.tests.tests) == 0


def test_budget_remaining_and_expiry():
    times = iter([0.0, 1.0, 2.0, 5.0])
    budget = Budget(deadline_seconds=4.0, clock=lambda: next(times)).start()
    assert budget.remaining() == 3.0  # at t=1
    assert not budget.expired()  # at t=2
    assert budget.expired()  # at t=5
    unbounded = Budget().start()
    assert unbounded.remaining() is None and not unbounded.expired()


def test_product_state_cap_reports_reason():
    circuit = load_benchmark("vbe6a", "two-level")
    options = AtpgOptions(seed=0, max_product_states=1, use_random_tpg=False)
    result = Flow.default().run(circuit, options)
    assert result.n_aborted > 0
    assert set(result.abort_reasons()) == {"product-states"}


def test_explicit_budget_keeps_the_options_caps():
    """An explicit ``Budget`` bounds only the deadline: the per-fault
    caps still come from ``options``."""
    circuit = load_benchmark("vbe6a", "two-level")
    options = AtpgOptions(seed=0, max_product_states=1, use_random_tpg=False)
    implied = Flow.default().run(circuit, options)
    explicit = Flow.default().run(circuit, options, budget=Budget())
    assert explicit.n_aborted == implied.n_aborted > 0
    assert explicit.abort_reasons() == implied.abort_reasons()
    assert explicit.n_undetectable == implied.n_undetectable


# -- event stream ------------------------------------------------------------


class Recorder:
    def __init__(self):
        self.events = []

    def __call__(self, event):
        self.events.append(event)


def run_with_recorder(circuit, options):
    recorder = Recorder()
    result = Flow.default().run(circuit, options, listeners=[recorder])
    return result, recorder.events


def test_event_stream_is_deterministic_given_seed():
    circuit = load_benchmark("ebergen", "complex")
    options = AtpgOptions(seed=7)
    _, first = run_with_recorder(circuit, options)
    _, second = run_with_recorder(circuit, options)
    assert [e.to_json_dict() for e in first] == [e.to_json_dict() for e in second]
    assert len(first) > 10


def test_event_stream_shape(celem):
    result, events = run_with_recorder(celem, AtpgOptions(seed=1))
    # Stages bracket correctly: one StageFinished per StageStarted,
    # in order, starting with the cssg pseudo-stage.
    starts = [e.stage for e in events if isinstance(e, StageStarted)]
    ends = [e.stage for e in events if isinstance(e, StageFinished)]
    assert starts == ends
    assert starts[0] == "cssg"
    assert "three-phase" in starts
    # Every fault classified exactly once; every test announced.
    classified = [e for e in events if isinstance(e, FaultClassified)]
    assert len(classified) == result.n_total
    assert {e.fault for e in classified} == set(result.faults)
    added = [e for e in events if isinstance(e, TestAdded)]
    assert len(added) == len(result.tests.tests)
    assert [e.index for e in added] == list(range(len(added)))
    # n_faults is final at emit time (fault-sim credit counted in).
    assert [e.n_faults for e in added] == [
        len(t.faults) for t in result.tests.tests
    ]
    assert any(isinstance(e, ProgressTick) for e in events)


def test_budget_exhausted_event_emitted():
    circuit = load_benchmark("vbe6a", "two-level")
    recorder = Recorder()
    Flow.default().run(
        circuit,
        AtpgOptions(seed=0),
        listeners=[recorder],
        budget=_mid_run_deadline(),
    )
    exhausted = [e for e in recorder.events if isinstance(e, BudgetExhausted)]
    assert len(exhausted) == 1
    assert exhausted[0].reason == "deadline"
    assert exhausted[0].n_remaining > 0


def test_event_bus_raising_listener_dropped_without_disturbing_run(celem):
    import warnings

    # A listener that dies mid-run (say, one writing to a broken pipe)
    # is dropped after one warning; the run completes and the
    # steady listener sees the full stream.
    steady = []
    flaky_seen = []

    def flaky(event):
        flaky_seen.append(event)
        if len(flaky_seen) == 3:
            raise ConnectionResetError("client went away")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = Flow.default().run(
            celem, AtpgOptions(seed=1), listeners=[steady.append, flaky]
        )
    assert result.coverage == 1.0
    assert len(flaky_seen) == 3  # dropped right after it raised
    assert len(steady) > 3  # everyone else got the whole stream
    assert any(
        issubclass(w.category, RuntimeWarning) for w in caught
    )


# -- consumers ---------------------------------------------------------------


def test_trace_writer_emits_replayable_jsonl(celem, tmp_path):
    """Under a recording tracer the flow files every event on the span
    open at emission time: sorted by ``t``, the span events are the
    plain listener's stream field for field, and the span file replays
    them."""
    options = AtpgOptions(seed=1)
    plain = Flow.default().run(celem, options)
    seen = []
    with use_tracer(Tracer()) as tracer:
        traced = Flow.default().run(celem, options, listeners=[seen.append])
    filed = span_events(tracer)
    assert [
        {key: value for key, value in event.items() if key != "t"}
        for event in filed
    ] == [event.to_json_dict() for event in seen]
    assert filed[0]["event"] == "StageStarted" and filed[0]["stage"] == "cssg"
    assert {"FaultClassified", "TestAdded", "StageFinished"} <= {
        event["event"] for event in filed
    }
    assert strip_cpu(traced.to_json_dict()) == strip_cpu(plain.to_json_dict())

    path = tmp_path / "spans.jsonl"
    assert tracer.write_jsonl(str(path)) == len(tracer.spans)
    replayed = [json.loads(line) for line in path.read_text().splitlines()]
    assert replayed == tracer.spans


def test_progress_line_renders_and_closes(celem):
    stream = io.StringIO()
    with ProgressLine(stream) as progress:
        Flow.default().run(celem, AtpgOptions(seed=1), listeners=[progress])
    text = stream.getvalue()
    assert "covered=" in text and "tests=" in text
    assert text.endswith("\n")


# -- composition -------------------------------------------------------------


def test_custom_stage_list_three_phase_only(celem):
    result = Flow([ThreePhaseStage()]).run(celem, AtpgOptions(seed=1))
    assert result.n_random == 0
    assert result.coverage == 1.0


def test_empty_flow_marks_universe_unprocessed(celem):
    result = Flow([]).run(celem, AtpgOptions(seed=1))
    assert result.n_aborted == result.n_total
    assert result.abort_reasons() == {REASON_UNPROCESSED: result.n_total}


def test_user_defined_stage_participates(celem):
    class StampStage:
        name = "stamp"

        def enabled(self, ctx):
            return True

        def run(self, ctx):
            ctx.stage_stats[self.name] = {"saw_faults": len(ctx.work_list)}

    stamp = StampStage()
    recorder = Recorder()
    flow = Flow([stamp, RandomTpgStage(), ThreePhaseStage()])
    assert flow.stage_names == ["stamp", "random-tpg", "three-phase"]
    result = flow.run(celem, AtpgOptions(seed=1), listeners=[recorder])
    assert result.coverage == 1.0
    assert any(
        isinstance(e, StageStarted) and e.stage == "stamp"
        for e in recorder.events
    )


def test_default_stage_names_match_pipeline():
    from repro.flow import DEFAULT_STAGE_NAMES

    assert tuple(Flow.default().stage_names) == DEFAULT_STAGE_NAMES


# -- compaction stage --------------------------------------------------------


@pytest.mark.parametrize("collapse", [False, True])
def test_compaction_keeps_coverage_and_valid_references(collapse):
    circuit = load_benchmark("master-read", "complex")
    options = AtpgOptions(seed=2, random_walks=12, walk_len=24)
    plain = Flow.default().run(circuit, options)
    compacted = Flow.default().run(
        circuit,
        AtpgOptions(
            seed=2, random_walks=12, walk_len=24, compact=True, collapse=collapse
        ),
    )
    assert compacted.n_covered == plain.n_covered
    assert len(compacted.tests.tests) <= len(plain.tests.tests)
    for fault, status in compacted.statuses.items():
        if status.status == "detected":
            assert status.test_index is not None
            assert fault in compacted.tests.tests[status.test_index].faults


def test_compaction_skipped_when_budget_expired(celem):
    clock = iter([0.0] + [10.0] * 10_000)
    budget = Budget(deadline_seconds=5.0, clock=lambda: next(clock))
    result = Flow.default().run(
        celem, AtpgOptions(seed=1, compact=True), budget=budget
    )
    assert result.n_aborted == result.n_total  # nothing ran, nothing compacted


# -- context invariants ------------------------------------------------------


def test_fault_subset_and_shared_cssg(celem):
    from repro.sgraph.cssg import build_cssg

    cssg = build_cssg(celem)
    faults = fault_universe(celem, "input")[:4]
    result = Flow.default().run(
        celem, AtpgOptions(seed=1), faults=faults, cssg=cssg
    )
    assert result.n_total == 4
    assert result.cssg is cssg


# -- one three-phase outcome per fault ---------------------------------------


@pytest.mark.parametrize("use_random_tpg", [True, False])
def test_three_phase_generates_each_fault_once(use_random_tpg, monkeypatch):
    """converta/input: random TPG's undetectability proof and the
    three-phase stage share one outcome per fault, so the generator runs
    exactly once for each fault three-phase classifies."""
    from collections import Counter

    from repro.core.three_phase import ThreePhaseGenerator

    calls = []
    real_generate = ThreePhaseGenerator.generate

    def spy(self, fault, *args, **kwargs):
        calls.append(fault)
        return real_generate(self, fault, *args, **kwargs)

    monkeypatch.setattr(ThreePhaseGenerator, "generate", spy)
    circuit = load_benchmark("converta", "complex")
    result, events = run_with_recorder(
        circuit, AtpgOptions(fault_model="input", use_random_tpg=use_random_tpg)
    )
    by_three_phase = [
        e.fault
        for e in events
        if isinstance(e, FaultClassified)
        and e.stage == "three-phase"
        and e.phase != "sim"
    ]
    assert result.n_undetectable == 7
    assert len(by_three_phase) >= 7
    assert Counter(calls) == Counter(by_three_phase)
    assert max(Counter(calls).values()) == 1


def test_deadline_inside_the_undetectability_proof(monkeypatch):
    """The deadline passes while random TPG's prover works on its first
    fault: that proven fault still comes back undetectable (its outcome
    is honoured), the unproven leftovers are aborted/'budget', and the
    random detections stand."""
    from repro.core.three_phase import ThreePhaseGenerator

    now = [0.0]
    budget = Budget(deadline_seconds=10.0, clock=lambda: now[0])
    generated = []
    real_generate = ThreePhaseGenerator.generate

    def generate_past_deadline(self, fault, *args, **kwargs):
        outcome = real_generate(self, fault, *args, **kwargs)
        generated.append(fault)
        now[0] = 100.0
        return outcome

    monkeypatch.setattr(ThreePhaseGenerator, "generate", generate_past_deadline)
    circuit = load_benchmark("converta", "complex")
    options = AtpgOptions(fault_model="input")
    unbounded = Flow.default().run(circuit, options)
    recorder = Recorder()
    generated.clear()
    now[0] = 0.0
    result = Flow.default().run(
        circuit, options, budget=budget, listeners=[recorder]
    )
    (proven,) = generated
    assert result.statuses[proven].status == "undetectable"
    leftovers = [
        f for f in result.faults if unbounded.statuses[f].status != "detected"
    ]
    assert len(leftovers) == 7 and proven in leftovers
    for fault in leftovers:
        if fault != proven:
            status = result.statuses[fault]
            assert (status.status, status.reason) == ("aborted", REASON_BUDGET)
    assert result.n_covered == unbounded.n_covered
    (exhausted,) = [
        e for e in recorder.events if isinstance(e, BudgetExhausted)
    ]
    assert exhausted.stage == "three-phase" and exhausted.n_remaining == 6
