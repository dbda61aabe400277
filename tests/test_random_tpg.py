"""Random TPG: coverage, determinism, no false detections, and the
early stop once only proven-undetectable faults remain."""

import random

import pytest

from repro.benchmarks_data import TABLE1_NAMES, TABLE2_NAMES, load_benchmark
from repro.circuit.faults import fault_universe, input_fault_universe
from repro.core.atpg import AtpgOptions
from repro.core.random_tpg import random_tpg
from repro.flow import Flow
from repro.flow import stages
from repro.sgraph.cssg import build_cssg
from repro.sim import ternary
from repro.sim.arena import ArenaWalk


def test_detects_faults_on_celem(celem):
    cssg = build_cssg(celem)
    faults = input_fault_universe(celem)
    detected, tests = random_tpg(cssg, faults, n_walks=8, walk_len=16, seed=0)
    assert detected  # the C-element is highly random-testable
    assert all(t.source == "random" for t in tests)
    covered = {f for t in tests for f in t.faults}
    assert covered == set(detected)


def test_deterministic_given_seed(celem):
    cssg = build_cssg(celem)
    faults = input_fault_universe(celem)
    a = random_tpg(cssg, faults, n_walks=4, walk_len=8, seed=7)
    b = random_tpg(cssg, faults, n_walks=4, walk_len=8, seed=7)
    assert a[0] == b[0]
    assert [t.patterns for t in a[1]] == [t.patterns for t in b[1]]


def test_every_reported_detection_is_replayable(celem):
    """No over-reporting: replaying each recorded sequence with scalar
    ternary simulation must definitely expose every credited fault."""
    cssg = build_cssg(celem)
    faults = input_fault_universe(celem)
    detected, _tests = random_tpg(cssg, faults, n_walks=8, walk_len=16, seed=3)
    for fault, patterns in detected.items():
        good = cssg.reset
        faulty = ternary.settle_from_reset(celem, cssg.reset, fault)
        hit = ternary.detects(celem, good, faulty)
        for pattern in patterns:
            good = cssg.edges[good][pattern]
            faulty = ternary.apply_pattern(celem, faulty, pattern, fault)
            hit = hit or ternary.detects(celem, good, faulty)
        assert hit, fault.describe(celem)


def test_sequences_are_valid_cssg_walks(celem):
    cssg = build_cssg(celem)
    faults = input_fault_universe(celem)
    _, tests = random_tpg(cssg, faults, n_walks=8, walk_len=16, seed=5)
    for t in tests:
        cssg.run(t.patterns)  # must not raise


def test_zero_walks_detects_nothing(celem):
    cssg = build_cssg(celem)
    faults = input_fault_universe(celem)
    detected, tests = random_tpg(cssg, faults, n_walks=0, walk_len=8, seed=0)
    assert detected == {} and tests == []


def test_walks_stop_when_all_faults_fall(celem):
    cssg = build_cssg(celem)
    faults = input_fault_universe(celem)
    detected, tests = random_tpg(cssg, faults, n_walks=500, walk_len=64, seed=1)
    # Far fewer walks recorded than requested: coverage saturates.
    assert len(tests) < 500


# -- undetectability proof at the first dry walk -----------------------------

MODELS = ("input", "output", "bridging", "transition")
TABLE_JOBS = [(n, "complex") for n in TABLE1_NAMES] + [
    (n, "two-level") for n in TABLE2_NAMES
]


def _walk_results(result):
    detected_by, tests = result
    return detected_by, [(t.patterns, list(t.faults), t.source) for t in tests]


@pytest.mark.parametrize(
    "name,style", TABLE_JOBS, ids=[f"{n}/{s}" for n, s in TABLE_JOBS]
)
def test_flow_prover_leaves_detections_and_tests_unchanged(
    name, style, monkeypatch
):
    """Every Table-1/Table-2 job, all four models: random TPG with the
    flow's prover returns exactly what it returns without one, from the
    same random stream."""
    pairs = []

    def twin(cssg, faults, **kwargs):
        plain_rng = random.Random()
        plain_rng.setstate(kwargs["rng"].getstate())
        plain = random_tpg(
            cssg,
            faults,
            **{
                **kwargs,
                "rng": plain_rng,
                "on_walk": None,
                "prove_undetectable": None,
            },
        )
        proved = random_tpg(cssg, faults, **kwargs)
        pairs.append((_walk_results(plain), _walk_results(proved)))
        return proved

    monkeypatch.setattr(stages, "random_tpg", twin)
    circuit = load_benchmark(name, style)
    for model in MODELS:
        Flow.default().run(circuit, AtpgOptions(seed=0, fault_model=model))
    assert pairs
    for plain, proved in pairs:
        assert proved == plain


def test_walks_stop_once_the_rest_is_proven_undetectable(monkeypatch):
    """ebergen/input: 10 of 12 faults fall to the first walk and the 2
    left are undetectable.  The second walk detects nothing, three-phase
    proves both, and the walks end there instead of running all
    ``random_walks`` walks of ``walk_len`` cycles."""
    steps = []
    real_step = ArenaWalk.step

    def counting_step(self, pattern, good_state):
        steps.append(pattern)
        return real_step(self, pattern, good_state)

    monkeypatch.setattr(ArenaWalk, "step", counting_step)
    options = AtpgOptions(fault_model="input")
    events = []
    result = Flow.default().run(
        load_benchmark("ebergen", "complex"), options, listeners=[events.append]
    )
    assert (result.n_total, result.n_undetectable) == (12, 2)
    walks = [
        e
        for e in events
        if e["event"] == "ProgressTick" and e["stage"] == "random-tpg"
    ]
    assert len(walks) < options.random_walks
    assert len(steps) < options.random_walks * options.walk_len
    (finished,) = [
        e
        for e in events
        if e["event"] == "StageFinished" and e["stage"] == "random-tpg"
    ]
    assert f"n_walks={len(walks)}" in finished["detail"]
    assert "n_proven_undetectable=2" in finished["detail"]


def test_prover_is_consulted_once_with_the_undetected_faults():
    """ebergen/input: the first walk catches 10 of 12 faults and every
    later walk is dry.  A prover that proves nothing is offered exactly
    the 2 undetected faults, once, and changes no result."""
    circuit = load_benchmark("ebergen", "complex")
    cssg = build_cssg(circuit)
    faults = fault_universe(circuit, "input")
    offered = []

    def prove_nothing(undetected):
        offered.append(list(undetected))
        return []

    with_hook = random_tpg(cssg, faults, seed=2, prove_undetectable=prove_nothing)
    plain = random_tpg(cssg, faults, seed=2)
    assert _walk_results(with_hook) == _walk_results(plain)
    (undetected,) = offered
    assert sorted(undetected) == sorted(set(faults) - set(plain[0]))
    assert len(undetected) == 2
