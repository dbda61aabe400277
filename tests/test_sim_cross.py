"""Cross-model properties: ternary simulation vs exhaustive exploration,
and the compiled engine vs the seed reference implementation.

These are the load-bearing soundness relations of the whole approach:

* **conservativeness** — if exhaustive exploration shows non-confluence
  or a cycle, ternary simulation must report Φ (it may never claim a
  definite outcome for a racy vector);
* **agreement** — if ternary is definite, the settling graph is acyclic,
  confluent, and terminates in exactly the ternary result;
* **parity** — the compiled arena walk kernel (:mod:`repro.sim.arena`)
  must be *bit-identical* to the seed's sweep implementation preserved
  in :mod:`fuzzer.reference`: scalar ternary settling (with and
  without faults), one-fault engines, each lane of a fault list's
  engine run alone (the three-phase and classifier faulty machines), and
  the excited-gate enumeration that drives exact simulation.

Checked on the fixture circuits, on every bundled benchmark, and on
randomly generated netlists.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks_data import TABLE1_NAMES, load_benchmark
from repro.circuit.expr import And, Const, Not, Or, Var, Xor
from repro.circuit.faults import fault_universe
from repro.circuit.netlist import Circuit
from repro.faultmodels import get_model, model_names
from repro.sgraph.cssg import build_cssg
from repro.sgraph.explore import settle_report
from repro.sim import ternary
from repro.sim.engine import compiled, engine_for

from fuzzer import reference
from fuzzer.reference import reference_apply, reference_reset


def check_agreement(circuit, start_state):
    """The two analyses must relate correctly for one settling run.

    Note the asymmetry: a definite ternary verdict guarantees a unique
    stable outcome (and exploration must agree on it), but it does NOT
    guarantee acyclicity — a transient cycle whose escape is delay-forced
    (an excited gate that must eventually fire) still settles uniquely.
    Conversely non-confluence always forces Φ; Φ itself may also stem
    from wire-delay conservatism on a perfectly confluent circuit.
    """
    report = settle_report(circuit, start_state, cap=20_000)
    result = ternary.settle(
        circuit, ternary.from_binary(start_state, circuit.n_signals)
    )
    if ternary.is_definite(result):
        assert not report.truncated
        assert not report.nonconfluent, "definite ternary on a racy vector"
        assert report.stable_states == frozenset([ternary.to_binary(result)])
    if report.nonconfluent:
        assert not ternary.is_definite(result), (
            "exploration found a race but ternary was definite"
        )


def test_fixture_circuits_every_vector(celem, oscillator, race):
    for circuit in (celem, oscillator, race):
        for state in circuit.enumerate_stable_states():
            for pattern in range(1 << circuit.n_inputs):
                if pattern == circuit.input_pattern(state):
                    continue
                check_agreement(circuit, circuit.apply_input_pattern(state, pattern))


# -- random circuits -----------------------------------------------------

SIGNALS = ["a", "b", "g0", "g1", "g2"]


def random_expr(draw, depth=0):
    choice = draw(st.integers(0, 5 if depth < 2 else 1))
    if choice == 0:
        return Var(draw(st.sampled_from(SIGNALS)))
    if choice == 1:
        return Const(draw(st.integers(0, 1)))
    if choice == 2:
        return Not(random_expr(draw, depth + 1))
    if choice == 3:
        return And((random_expr(draw, depth + 1), random_expr(draw, depth + 1)))
    if choice == 4:
        return Or((random_expr(draw, depth + 1), random_expr(draw, depth + 1)))
    return Xor(random_expr(draw, depth + 1), random_expr(draw, depth + 1))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_random_circuits(data):
    circuit = Circuit("rand")
    circuit.add_input("a")
    circuit.add_input("b")
    for name in ("g0", "g1", "g2"):
        circuit.add_gate(name, expr=random_expr(data.draw))
    circuit.mark_output("g2")
    circuit.finalize()
    start = data.draw(st.integers(0, (1 << circuit.n_signals) - 1))
    check_agreement(circuit, start)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_circuits_from_stable_states(data):
    """Same property, but starting from genuine R_I successors."""
    circuit = Circuit("rand2")
    circuit.add_input("a")
    circuit.add_input("b")
    for name in ("g0", "g1", "g2"):
        circuit.add_gate(name, expr=random_expr(data.draw))
    circuit.finalize()
    stable = circuit.enumerate_stable_states()
    if not stable:
        return
    state = data.draw(st.sampled_from(stable))
    pattern = data.draw(st.integers(0, 3))
    check_agreement(circuit, circuit.apply_input_pattern(state, pattern))


# -- engine vs seed-implementation parity --------------------------------


def _fault_sample(circuit, stride=3):
    """A deterministic spread over the full input+output fault universe."""
    faults = fault_universe(circuit, "input") + fault_universe(circuit, "output")
    return faults[::stride] or faults


def _walk(circuit, n_cycles=6):
    """A deterministic input-pattern walk covering every input bit."""
    m = circuit.n_inputs
    patterns = [(0b10101 >> (i % 3)) & ((1 << m) - 1) for i in range(n_cycles)]
    patterns.extend(p ^ ((1 << m) - 1) for p in list(patterns))
    return patterns


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_engine_matches_seed_scalar_on_benchmarks(name):
    """Scalar ternary: engine == seed sweeps, fault-free and faulted,
    from reset and along a whole input walk."""
    circuit = load_benchmark(name, "complex")
    reset = circuit.require_reset()
    n = circuit.n_signals
    for fault in [None] + _fault_sample(circuit):
        ts_engine = ternary.settle_from_reset(circuit, reset, fault)
        start = reset
        if fault is not None and fault.kind == "output":
            start = (reset & ~(1 << fault.site)) | (fault.value << fault.site)
        ts_seed = reference.settle(circuit, ternary.from_binary(start, n), fault)
        assert ts_engine == ts_seed
        for pattern in _walk(circuit):
            ts_engine = ternary.apply_pattern(circuit, ts_engine, pattern, fault)
            imask = (1 << circuit.n_inputs) - 1
            low = (ts_seed[0] & ~imask) | (~pattern & imask)
            high = (ts_seed[1] & ~imask) | (pattern & imask)
            ts_seed = reference.settle(circuit, (low, high), fault)
            assert ts_engine == ts_seed, f"{name}: diverged on {pattern:b}"


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_width1_batch_matches_seed_on_benchmarks(name):
    """A one-fault engine must stay bit-for-bit the scalar seed
    semantics for every sampled fault."""
    circuit = load_benchmark(name, "complex")
    reset = circuit.require_reset()
    for fault in _fault_sample(circuit, stride=5):
        sim = engine_for(circuit, [fault])
        bstate = sim.lane_at_reset(0, reset)
        seed_start = reset
        if fault.kind == "output":
            seed_start = (reset & ~(1 << fault.site)) | (fault.value << fault.site)
        sstate = reference.settle(
            circuit, ternary.from_binary(seed_start, circuit.n_signals), fault
        )
        assert bstate == sstate
        for pattern in _walk(circuit, n_cycles=4):
            bstate = sim.apply_lane(bstate, pattern, 0)
            imask = (1 << circuit.n_inputs) - 1
            low = (sstate[0] & ~imask) | (~pattern & imask)
            high = (sstate[1] & ~imask) | (pattern & imask)
            sstate = reference.settle(circuit, (low, high), fault)
            assert bstate == sstate


@pytest.mark.parametrize("model_name", model_names())
def test_lanes_match_seed_along_cssg_walks(model_name):
    """Every lane of a fault list's engine, run alone from its settled
    reset along a seeded CSSG walk (how the three-phase generator and
    the classifier run their ternary faulty machines), matches the seed
    sweeps on every Table-1 benchmark."""
    for name in TABLE1_NAMES:
        cssg = build_cssg(load_benchmark(name, "complex"))
        circuit = cssg.circuit
        faults = get_model(model_name).universe(circuit)
        sim = engine_for(circuit, faults)
        patterns = cssg.random_walk(random.Random(f"{name}:{model_name}"), 8)
        for j, fault in enumerate(faults):
            (want,) = reference_reset(circuit, [fault], cssg.reset)
            got = sim.lane_at_reset(j, cssg.reset)
            assert got == want, (name, fault)
            for pattern in patterns:
                (want,) = reference_apply(circuit, [fault], [want], pattern)
                got = sim.apply_lane(got, pattern, j)
                assert got == want, (name, fault, pattern)


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_excited_enumeration_matches_seed_on_benchmarks(name):
    """The compiled excited-gate function behind exact simulation must
    reproduce the seed's per-gate interpretation on arbitrary states."""
    circuit = load_benchmark(name, "complex")
    exc = compiled(circuit).excited_signals
    n = circuit.n_signals
    state = circuit.require_reset()
    # A deterministic multiplicative scramble over the state space.
    for i in range(200):
        state = (state * 0x9E3779B1 + i) & ((1 << n) - 1)
        assert exc(state) == reference.excited_gates(circuit, state)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_engine_matches_seed_on_random_netlists(data):
    """Engine-vs-seed bit parity on randomized netlists and states,
    fault-free and under a random fault."""
    circuit = Circuit("randpar")
    circuit.add_input("a")
    circuit.add_input("b")
    for name in ("g0", "g1", "g2"):
        circuit.add_gate(name, expr=random_expr(data.draw))
    circuit.mark_output("g2")
    circuit.finalize()
    n = circuit.n_signals
    state = data.draw(st.integers(0, (1 << n) - 1))
    ts = ternary.from_binary(state, n)
    assert ternary.settle(circuit, ts) == reference.settle(circuit, ts)
    faults = fault_universe(circuit, "input") + fault_universe(circuit, "output")
    fault = data.draw(st.sampled_from(faults))
    assert ternary.settle(circuit, ts, fault) == reference.settle(circuit, ts, fault)
    assert compiled(circuit).excited_signals(state) == reference.excited_gates(
        circuit, state
    )


def test_apply_pattern_settles_unsettled_states_like_seed():
    """Regression: apply_pattern must fully settle an *unsettled* start
    state — including when the pattern leaves the inputs unchanged —
    exactly like the historical sweep implementation."""
    circuit = Circuit("unsettled")
    circuit.add_input("a")
    circuit.add_gate("y", gtype="BUF", inputs=["a"])
    circuit.mark_output("y")
    circuit.finalize()
    # a=1, y=0: not a fixpoint.  Pattern 1 keeps the inputs unchanged.
    start = ternary.from_binary(0b01, circuit.n_signals)
    got = ternary.apply_pattern(circuit, start, 1)
    imask = (1 << circuit.n_inputs) - 1
    low = (start[0] & ~imask) | (~1 & imask)
    high = (start[1] & ~imask) | (1 & imask)
    assert got == reference.settle(circuit, (low, high))
    assert got == ternary.from_binary(0b11, circuit.n_signals)


def test_exact_sim_matches_seed_exploration():
    """settle_report (the exact-sim core) must classify identically to a
    reference explorer built on the seed's excited-gate sweeps."""
    from repro.circuit.faults import materialize_fault

    def reference_report(circuit, start, cap=50_000):
        succs, stable, stack = {}, [], [start]
        while stack:
            state = stack.pop()
            if state in succs:
                continue
            assert len(succs) < cap
            excited = reference.excited_gates(circuit, state)
            if not excited:
                succs[state] = ()
                stable.append(state)
                continue
            nxt = tuple(state ^ (1 << gi) for gi in excited)
            succs[state] = nxt
            stack.extend(t for t in nxt if t not in succs)
        return frozenset(stable), succs

    for name in ("ebergen", "dff", "sbuf-send-ctl"):
        circuit = load_benchmark(name, "complex")
        reset = circuit.require_reset()
        universe = fault_universe(circuit, "input")[::4]
        for fault in universe:
            faulty = materialize_fault(circuit, fault)
            start = faulty.reset_state if faulty.reset_state is not None else reset
            for pattern in range(1 << circuit.n_inputs):
                started = faulty.apply_input_pattern(start, pattern)
                report = settle_report(faulty, started)
                ref_stable, ref_succs = reference_report(faulty, started)
                assert report.stable_states == ref_stable
                assert report.n_states == len(ref_succs)
