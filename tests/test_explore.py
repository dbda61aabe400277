"""Exhaustive settling analysis (the TCR_k validity oracle) and its
stubborn-set-reduced variant for the exact faulty machine."""

from typing import Dict, List, Tuple

import pytest

from repro.benchmarks_data import TABLE1_NAMES, TABLE2_NAMES
from repro.campaign import plan, runner
from repro.campaign.plan import CampaignSpec
from repro.circuit.parser import parse_netlist
from repro.core import exact_sim
from repro.errors import StateGraphError
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.sgraph.explore import SettleReport, reduced_settle_report, settle_report
from repro.sim.engine import compiled


def reference_settle_report(circuit, start: int, cap: int = 200_000) -> SettleReport:
    """Three passes over the settling graph: push-all stack exploration,
    a three-colour cycle search, then longest-path relaxation in
    topological order.  Same contract as ``settle_report``."""
    excited_signals = compiled(circuit).excited_signals
    succs: Dict[int, Tuple[int, ...]] = {}
    stable: List[int] = []
    stack = [start]
    truncated = False
    while stack:
        state = stack.pop()
        if state in succs:
            continue
        if len(succs) >= cap:
            truncated = True
            break
        excited = excited_signals(state)
        if not excited:
            succs[state] = ()
            stable.append(state)
            continue
        nxt = tuple(state ^ (1 << gi) for gi in excited)
        succs[state] = nxt
        for t in nxt:
            if t not in succs:
                stack.append(t)

    has_cycle = _has_cycle(succs, start) if not truncated else True
    longest = None
    if not truncated and not has_cycle:
        longest = _longest_path(succs, start)
    return SettleReport(
        start=start,
        stable_states=frozenset(stable),
        has_cycle=has_cycle,
        longest_path=longest,
        n_states=len(succs),
        truncated=truncated,
    )


def _has_cycle(succs: Dict[int, Tuple[int, ...]], start: int) -> bool:
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[int, int] = {start: GRAY}
    stack: List[Tuple[int, int]] = [(start, 0)]
    while stack:
        node, i = stack[-1]
        children = succs.get(node, ())
        if i < len(children):
            stack[-1] = (node, i + 1)
            child = children[i]
            c = color.get(child, WHITE)
            if c == GRAY:
                return True
            if c == WHITE:
                color[child] = GRAY
                stack.append((child, 0))
        else:
            color[node] = BLACK
            stack.pop()
    return False


def _longest_path(succs: Dict[int, Tuple[int, ...]], start: int) -> int:
    order: List[int] = []
    seen = {start}
    stack: List[Tuple[int, int]] = [(start, 0)]
    while stack:
        node, i = stack[-1]
        children = succs.get(node, ())
        if i < len(children):
            stack[-1] = (node, i + 1)
            child = children[i]
            if child not in seen:
                seen.add(child)
                stack.append((child, 0))
        else:
            order.append(node)
            stack.pop()
    dist = {start: 0}
    for node in reversed(order):
        d = dist.get(node)
        if d is None:
            continue
        for child in succs.get(node, ()):
            if dist.get(child, -1) < d + 1:
                dist[child] = d + 1
    return max(dist.values())


#: A buffered input fans out to p and q; e = p & ~q pulses only when p
#: wins the race, and while e is high o = ~(e & o) chases itself.  When
#: q wins the circuit just settles, so the oscillation sits beside a
#: branch that reaches the one stable state.
SIDE_CYCLE_NET = """
.model sidecycle
.inputs A
.gate p BUF A
.gate q BUF A
.expr e = p & ~q
.expr o = ~(e & o)
.outputs o
.reset A=0 p=0 q=0 e=0 o=1
"""


def test_stable_state_reports_itself(celem):
    reset = celem.require_reset()
    report = settle_report(celem, reset)
    assert report.confluent
    assert report.stable_states == frozenset([reset])
    assert report.longest_path == 0
    assert report.valid(k=0)


def test_confluent_rise(celem):
    started = celem.apply_input_pattern(celem.require_reset(), 0b11)
    report = settle_report(celem, started)
    assert report.confluent and not report.oscillating
    settled = report.unique_stable
    assert celem.value(settled, "c") == 1
    # a, b, c must all switch: longest interleaving is exactly 3.
    assert report.longest_path == 3
    assert report.valid(3) and not report.valid(2)


def test_nonconfluence_detected(race):
    # Figure 1(a): both settle states are stable, differing in y.
    started = race.apply_input_pattern(race.require_reset(), 0b01)
    report = settle_report(race, started)
    assert report.nonconfluent
    assert len(report.stable_states) == 2
    ys = {race.value(s, "y") for s in report.stable_states}
    assert ys == {0, 1}
    assert not report.valid(k=100)


def test_oscillation_detected(oscillator):
    started = oscillator.apply_input_pattern(oscillator.require_reset(), 1)
    report = settle_report(oscillator, started)
    assert report.oscillating
    assert not report.valid(k=10_000)
    assert report.longest_path is None


def test_unique_stable_raises_when_ambiguous(race):
    started = race.apply_input_pattern(race.require_reset(), 0b01)
    report = settle_report(race, started)
    with pytest.raises(StateGraphError):
        _ = report.unique_stable


def test_truncation_cap(celem):
    started = celem.apply_input_pattern(celem.require_reset(), 0b11)
    report = settle_report(celem, started, cap=2)
    assert report.truncated
    assert not report.valid(k=100)


def test_opposing_edges_race_on_celem(celem):
    """From c=1 with one input already low, raising it while dropping the
    other creates the classic C-element hazard."""
    up = celem.state_of({"A": 1, "B": 1, "a": 1, "b": 1, "c": 1})
    assert celem.is_stable(up)
    half = celem.state_of({"A": 1, "B": 0, "a": 1, "b": 0, "c": 1})
    assert celem.is_stable(half)
    started = celem.apply_input_pattern(half, 0b10)  # A-, B+ together
    report = settle_report(celem, started)
    assert report.nonconfluent


# -- the one-pass search against the three-pass reference ----------------


@pytest.fixture(scope="module")
def corpus_starts():
    """``{(table, caller): [(circuit, start, cap), ...]}``: every
    distinct settle one pass of Table 1 or Table 2 (all circuits x the
    four fault models) issues, from CSSG construction (``"cssg"``) or
    from the exact faulty machine (``"exact"``)."""
    calls: Dict[Tuple[str, str], Dict] = {}

    def recorder(table, caller, real):
        seen = calls.setdefault((table, caller), {})

        def record(circuit, start, cap=200_000):
            seen[id(circuit), start, cap] = (circuit, start, cap)
            return real(circuit, start, cap)

        return record

    for table, names, style in (
        ("table1", TABLE1_NAMES, "complex"),
        ("table2", TABLE2_NAMES, "two-level"),
    ):
        spec = CampaignSpec(
            benchmarks=names, styles=(style,),
            fault_models=("input", "output", "bridging", "transition"),
            seeds=(0,),
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                "repro.sgraph.cssg.settle_report",
                recorder(table, "cssg", settle_report),
            )
            patch.setattr(
                "repro.core.exact_sim.settle_report",
                recorder(table, "exact", exact_sim.settle_report),
            )
            for job in plan.expand(spec):
                runner.execute_job(job)
    return {key: list(seen.values()) for key, seen in calls.items()}


@pytest.fixture(scope="module")
def table2_starts(corpus_starts):
    """Every distinct CSSG and exact-simulation settle of one Table-2
    pass."""
    return corpus_starts["table2", "cssg"] + corpus_starts["table2", "exact"]


def test_matches_reference_on_every_table2_start(table2_starts):
    assert len(table2_starts) > 500
    for circuit, start, cap in table2_starts:
        assert settle_report(circuit, start, cap) == reference_settle_report(
            circuit, start, cap
        )


def test_truncated_reports_match_reference_state_for_state(table2_starts):
    largest = sorted(
        {(c.name, s): (c, s) for c, s, _ in table2_starts}.values(),
        key=lambda cs: -settle_report(*cs).n_states,
    )[:25]
    for circuit, start in largest:
        for cap in range(1, 41):
            assert settle_report(circuit, start, cap) == reference_settle_report(
                circuit, start, cap
            )


@pytest.mark.parametrize("fixture", ["celem", "race", "oscillator"])
def test_matches_reference_on_fixtures(fixture, request):
    circuit = request.getfixturevalue(fixture)
    reset = circuit.require_reset()
    for pattern in range(1 << circuit.n_inputs):
        started = circuit.apply_input_pattern(reset, pattern)
        for cap in (1, 2, 3, 200_000):
            assert settle_report(circuit, started, cap) == reference_settle_report(
                circuit, started, cap
            )


def test_cycle_beside_a_stable_branch():
    circuit = parse_netlist(SIDE_CYCLE_NET)
    started = circuit.apply_input_pattern(circuit.require_reset(), 1)
    report = settle_report(circuit, started)
    assert report == reference_settle_report(circuit, started)
    assert report.oscillating and report.longest_path is None
    (settled,) = report.stable_states
    assert circuit.value(settled, "o") == 1 and circuit.value(settled, "e") == 0


# -- the stubborn-set-reduced explorer against the full one ---------------

#: Six buffered inputs and nothing reading them: 2^6 interleaved
#: states in full, one chain of 7 reduced.
SIX_BUFFERS_NET = """
.model six
.inputs A B C D E F
.gate a BUF A
.gate b BUF B
.gate c BUF C
.gate d BUF D
.gate e BUF E
.gate f BUF F
.outputs a b c d e f
.reset A=0 B=0 C=0 D=0 E=0 F=0 a=0 b=0 c=0 d=0 e=0 f=0
"""


#: h pulses, and the latch y catches it, only if u switches before g.
#: A stubborn set seeded at g holds only g's reader h among the gates
#: beside g; h is disabled, and its enabling set is what brings u in.
ORDER_LATCH_NET = """
.model orderlatch
.inputs G U
.gate g BUF G
.gate u BUF U
.expr h = ~g & u
.expr y = h | y
.outputs y
.reset G=0 U=0 g=0 u=0 h=0 y=0
"""


def _same_outcome(circuit, start, cap=200_000):
    """The reduced report of ``start``, after checking it against the
    full one: same stable states and cycle flag, never a reduced-only
    truncation, never more states."""
    full = settle_report(circuit, start, cap)
    reduced = reduced_settle_report(circuit, start, cap)
    assert reduced.longest_path is None
    assert reduced.n_states <= full.n_states
    if not full.truncated:
        assert not reduced.truncated
        assert reduced.stable_states == full.stable_states
        assert reduced.has_cycle == full.has_cycle
    return reduced


@pytest.mark.parametrize("table", ["table1", "table2"])
def test_reduced_matches_full_on_every_corpus_exact_start(corpus_starts, table):
    starts = corpus_starts[table, "exact"]
    assert len(starts) > 100
    for circuit, start, cap in starts:
        # No corpus start comes near the cap, so the reduced cap changes
        # no result (see test_cap_counts_reduced_states).
        assert not settle_report(circuit, start, cap).truncated
        _same_outcome(circuit, start, cap)


def test_reduced_explores_at_most_half_the_table2_states(corpus_starts):
    """Deterministic state-count floor (measured: ~0.2)."""
    starts = corpus_starts["table2", "exact"]
    full = sum(settle_report(c, s, cap).n_states for c, s, cap in starts)
    reduced = sum(reduced_settle_report(c, s, cap).n_states for c, s, cap in starts)
    assert reduced <= 0.5 * full


@pytest.mark.parametrize("fixture", ["celem", "race", "oscillator"])
def test_reduced_matches_full_on_fixtures(fixture, request):
    circuit = request.getfixturevalue(fixture)
    reset = circuit.require_reset()
    for pattern in range(1 << circuit.n_inputs):
        for cap in (1, 2, 3, 200_000):
            _same_outcome(circuit, circuit.apply_input_pattern(reset, pattern), cap)


def test_reduced_finds_a_cycle_reachable_only_through_one_interleaving():
    circuit = parse_netlist(SIDE_CYCLE_NET)
    started = circuit.apply_input_pattern(circuit.require_reset(), 1)
    report = _same_outcome(circuit, started)
    assert report.oscillating and not report.truncated


def test_reduced_keeps_both_outcomes_of_a_race(race):
    started = race.apply_input_pattern(race.require_reset(), 0b01)
    report = _same_outcome(race, started)
    assert report.nonconfluent and len(report.stable_states) == 2
    assert not report.valid(k=100)


def test_reduced_keeps_an_outcome_only_one_order_reaches():
    circuit = parse_netlist(ORDER_LATCH_NET)
    started = circuit.apply_input_pattern(circuit.require_reset(), 0b11)
    report = _same_outcome(circuit, started)
    assert {circuit.value(s, "y") for s in report.stable_states} == {0, 1}


def test_cap_counts_reduced_states():
    circuit = parse_netlist(SIX_BUFFERS_NET)
    started = circuit.apply_input_pattern(circuit.require_reset(), 0b111111)
    assert settle_report(circuit, started).n_states == 64
    assert reduced_settle_report(circuit, started).n_states == 7
    # Between the two counts the full search is cut short and the
    # reduced one is exact: the case the fuzz oracle tallies apart.
    full = settle_report(circuit, started, cap=10)
    reduced = _same_outcome(circuit, started, cap=10)
    assert full.truncated and not reduced.truncated
    (settled,) = reduced.stable_states
    assert circuit.input_pattern(settled) == 0b111111
    assert settled >> circuit.n_inputs == 0b111111
    # Below both, both are cut.
    assert reduced_settle_report(circuit, started, cap=5).truncated
    assert settle_report(circuit, started, cap=5).truncated


def test_height_free_report_refuses_cssg_validity(celem):
    started = celem.apply_input_pattern(celem.require_reset(), 0b11)
    full = settle_report(celem, started)
    reduced = reduced_settle_report(celem, started)
    assert reduced.confluent and reduced.stable_states == full.stable_states
    assert full.valid(3)
    with pytest.raises(StateGraphError, match="no height"):
        reduced.valid(3)


def test_exact_sim_binds_the_reduced_explorer():
    assert exact_sim.settle_report is reduced_settle_report


# -- truncation and state accounting ---------------------------------------


@pytest.fixture
def fresh_metrics():
    previous = obs_metrics.set_registry(MetricsRegistry())
    was_enabled = obs_metrics.enabled()
    try:
        yield
    finally:
        obs_metrics.set_registry(previous)
        if was_enabled:
            obs_metrics.enable()
        else:
            obs_metrics.disable()


def test_truncation_is_counted_when_metrics_are_armed(celem, fresh_metrics):
    started = celem.apply_input_pattern(celem.require_reset(), 0b11)
    registry = obs_metrics.enable(MetricsRegistry())
    assert settle_report(celem, started, cap=2).truncated
    assert not settle_report(celem, started).truncated
    assert registry.value("repro_settle_truncations_total") == 1


def test_truncation_is_not_counted_when_metrics_are_off(celem, fresh_metrics):
    obs_metrics.disable()
    started = celem.apply_input_pattern(celem.require_reset(), 0b11)
    assert settle_report(celem, started, cap=2).truncated
    assert reduced_settle_report(celem, started, cap=2).truncated
    registry = obs_metrics.get_registry()
    assert registry.get("repro_settle_truncations_total") is None
    assert registry.get("repro_settle_states_total") is None


def test_states_are_counted_per_explorer_when_metrics_are_armed(fresh_metrics):
    circuit = parse_netlist(SIX_BUFFERS_NET)
    started = circuit.apply_input_pattern(circuit.require_reset(), 0b111111)
    registry = obs_metrics.enable(MetricsRegistry())
    settle_report(circuit, started)
    reduced_settle_report(circuit, started)
    reduced_settle_report(circuit, started, cap=5)
    assert registry.value("repro_settle_states_total", "full") == 64
    assert registry.value("repro_settle_states_total", "reduced") == 7 + 5
    assert registry.value("repro_settle_truncations_total") == 1


def test_exact_fallbacks_are_counted_by_reason(celem, race, oscillator, fresh_metrics):
    registry = obs_metrics.enable(MetricsRegistry())
    osc_reset = oscillator.require_reset()
    assert exact_sim.faulty_apply(oscillator, frozenset([osc_reset]), 1) is None
    celem_reset = celem.require_reset()
    assert exact_sim.faulty_apply(celem, frozenset([celem_reset]), 0b11, cap=2) is None
    race_reset = race.require_reset()
    racing = exact_sim.faulty_apply(race, frozenset([race_reset]), 0b01, max_set=1)
    assert racing is None
    assert exact_sim.faulty_reset_states(oscillator, osc_reset) is not None
    for reason in ("oscillation", "truncation", "max_set"):
        assert registry.value("repro_exact_fallbacks_total", reason) == 1
    obs_metrics.disable()
    assert exact_sim.faulty_apply(oscillator, frozenset([osc_reset]), 1) is None
    assert registry.value("repro_exact_fallbacks_total", "oscillation") == 1
