"""The 3-phase deterministic generator (activation / justify / differ)."""

import pytest

from repro.benchmarks_data import TABLE2_NAMES, load_benchmark
from repro.campaign import runner
from repro.campaign.plan import CampaignSpec, expand
from repro.circuit.faults import Fault, input_fault_universe
from repro.circuit.parser import netlist_to_text, parse_netlist
from repro.core import exact_sim
from repro.core.three_phase import (
    ABORTED,
    DETECTED,
    UNDETECTABLE,
    ThreePhaseGenerator,
    _ExactMachine,
    _Fallback,
)
from repro.faultmodels import model_names
from repro.sgraph.cssg import build_cssg
from repro.sim import engine, ternary


@pytest.fixture
def gen(celem):
    return ThreePhaseGenerator(build_cssg(celem))


def test_activation_states_sorted_by_distance(celem, gen):
    c = celem.index("c")
    fault = Fault("input", c, c, 1)  # c's feedback pin stuck at 1
    acts = gen.activation_states(fault)
    assert acts, "some stable state must excite the fault"
    dist, _ = gen.cssg.bfs_tree()
    assert [dist[s] for s in acts] == sorted(dist[s] for s in acts)
    # Excitation semantics: site value differs from the stuck value.
    for s in acts:
        assert (s >> c) & 1 == 0


def test_justification_reaches_target(celem, gen):
    target = celem.state_of({"A": 1, "B": 1, "a": 1, "b": 1, "c": 1})
    patterns = gen.justification(target)
    assert gen.cssg.run(patterns)[-1] == target
    assert gen.justification(gen.cssg.reset) == []


def test_generate_detects_every_testable_celem_fault(celem, gen):
    for fault in input_fault_universe(celem):
        outcome = gen.generate(fault)
        assert outcome.status == DETECTED, fault.describe(celem)
        # Replay the sequence: it must genuinely detect.
        good = gen.cssg.reset
        faulty = ternary.settle_from_reset(celem, good, fault)
        hit = ternary.detects(celem, good, faulty)
        for pattern in outcome.patterns:
            good = gen.cssg.edges[good][pattern]
            faulty = ternary.apply_pattern(celem, faulty, pattern, fault)
            hit = hit or ternary.detects(celem, good, faulty)
        assert hit


def test_generated_tests_are_shortest_possible(celem, gen):
    """BFS differentiation: no strictly shorter valid sequence may detect
    (checked exhaustively for short lengths)."""
    c = celem.index("c")
    fault = Fault("input", c, celem.index("a"), 1)
    outcome = gen.generate(fault)
    assert outcome.detected
    n = len(outcome.patterns)
    if n <= 2:
        shorter_hits = []
        def walk(good, faulty, depth):
            if depth >= n:
                return
            for pattern in gen.cssg.valid_patterns(good):
                g2 = gen.cssg.edges[good][pattern]
                f2 = ternary.apply_pattern(celem, faulty, pattern, fault)
                if ternary.detects(celem, g2, f2):
                    shorter_hits.append(depth + 1)
                walk(g2, f2, depth + 1)
        start_faulty = ternary.settle_from_reset(celem, gen.cssg.reset, fault)
        walk(gen.cssg.reset, start_faulty, 0)
        assert all(h >= n for h in shorter_hits)


def test_undetectable_fault_is_proven():
    """A gate with a redundant OR-branch: its pin faults cannot matter."""
    net = """
    .model red
    .inputs A
    .gate a BUF A
    .expr y = a | (a & y)
    .outputs y
    .reset A=0 a=0 y=0
    """
    circuit = parse_netlist(net)
    gen = ThreePhaseGenerator(build_cssg(circuit))
    y, a = circuit.index("y"), circuit.index("a")
    # The (a & y) branch is absorbed: y's feedback pin stuck-at-0 is
    # undetectable.
    outcome = gen.generate(Fault("input", y, y, 0))
    assert outcome.status == UNDETECTABLE
    # ... while the direct pin matters:
    outcome2 = gen.generate(Fault("input", y, a, 0))
    assert outcome2.status == DETECTED


def test_budget_abort(celem):
    gen = ThreePhaseGenerator(build_cssg(celem), max_product_states=1)
    c = celem.index("c")
    # Not detectable at reset and needs >1 product exploration.
    fault = Fault("input", c, c, 1)
    outcome = gen.generate(fault)
    assert outcome.status in (ABORTED, DETECTED)
    if outcome.status == ABORTED:
        assert outcome.product_states_explored >= 1


def test_detection_at_reset_short_circuits(celem):
    a = celem.index("a")
    fault = Fault("output", a, a, 1)  # buffer output stuck high
    # 'a' is not an output of celem, so reset observation may or may not
    # catch it; craft one on the observable signal instead.
    c = celem.index("c")
    fault = Fault("output", c, c, 1)
    gen = ThreePhaseGenerator(build_cssg(celem))
    outcome = gen.generate(fault)
    assert outcome.detected
    assert outcome.patterns == ()  # visible at observation 0
    assert outcome.detected_during_justification


def _counting_settle(monkeypatch):
    """Record what every exact settle explores, one entry per call."""
    calls = []
    real = exact_sim.settle_report

    def counted(subject, start, cap):
        calls.append(subject)
        return real(subject, start, cap)

    monkeypatch.setattr(exact_sim, "settle_report", counted)
    return calls


def test_exact_machine_settles_a_repeated_apply_once(celem, monkeypatch):
    c = celem.index("c")
    machine = _ExactMachine(celem, Fault("input", c, c, 1), 50_000)
    assert isinstance(machine.faulty, exact_sim.PatchedMachine)
    states = machine.reset(celem.require_reset())
    calls = _counting_settle(monkeypatch)
    first = machine.apply(states, 0b11)
    assert len(calls) == len(states)
    assert machine.apply(states, 0b11) == first
    assert len(calls) == len(states)
    machine.apply(states, 0b01)  # a new vector settles again
    assert len(calls) == 2 * len(states)
    assert all(subject is machine.faulty for subject in calls)


def test_exact_machine_memoises_the_fallback(celem, monkeypatch):
    c = celem.index("c")
    # A one-state cap truncates every settle that moves at all.
    machine = _ExactMachine(celem, Fault("input", c, c, 1), 1)
    states = frozenset([celem.require_reset()])
    calls = _counting_settle(monkeypatch)
    for _ in range(2):
        with pytest.raises(_Fallback):
            machine.apply(states, 0b11)
    assert calls == [machine.faulty]
    outcome = ThreePhaseGenerator(build_cssg(celem), settle_cap=1).generate(
        Fault("input", c, c, 1)
    )
    assert outcome.semantics == "ternary"


#: The Table-2 circuits one of whose starts (a CSSG start or an exact
#: faulty-machine start) the certificates refuse, so that it explores.
TABLE2_EXPLORING = ("chu150", "converta", "ebergen", "nowick", "vbe6a")


def test_table2_pass_compiles_excited_once_per_circuit(monkeypatch):
    """A Table-2 pass compiles the excited-gate function once for each
    good circuit that explores (:data:`TABLE2_EXPLORING`), none for a
    circuit whose every start is certified, and never one of a faulty
    circuit: every exact faulty machine runs the good function plus a
    small per-fault patch."""
    compiles = []
    real_exec = engine._exec

    def spy(src, filename):
        compiles.append(filename)
        return real_exec(src, filename)

    # Private circuit copies, so nothing compiled by earlier tests is
    # reused; the four models of one circuit share it, as a pass does.
    copies = {}

    def fresh(job):
        key = (job.source, job.style)
        if key not in copies:
            text = netlist_to_text(load_benchmark(job.source, job.style))
            copies[key] = parse_netlist(text)
        return copies[key]

    monkeypatch.setattr(engine, "_exec", spy)
    monkeypatch.setattr(runner, "load_job_circuit", fresh)
    spec = CampaignSpec(
        benchmarks=TABLE2_NAMES, styles=("two-level",),
        fault_models=model_names(), seeds=(0,),
    )
    cssg_memo = {}
    for job in expand(spec):
        runner.execute_job(job, cssg_memo)
    excited = [f for f in compiles if f.startswith("<excited:")]
    assert sorted(excited) == [
        f"<excited:{name}-two-level>" for name in TABLE2_EXPLORING
    ]
    assert len(copies) == len(TABLE2_NAMES) == 9
    assert not [f for f in excited if "#" in f]
    patches = [f for f in compiles if f.startswith("<patch:")]
    assert patches and all("#" in f for f in patches)
