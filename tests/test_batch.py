"""Parallel fault simulation: an engine of W machines must equal W
scalar runs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.faults import fault_universe, input_fault_universe
from repro.core.random_tpg import random_tpg
from repro.flow.stages import fault_simulate
from repro.sgraph.cssg import build_cssg
from repro.sim import ternary
from repro.sim.engine import engine_for, lane_of


def walk_patterns(cssg, seed, length):
    rng = random.Random(seed)
    return cssg.random_walk(rng, length)


def walk_goods(cssg, patterns):
    """``(pattern, good state after it)`` along a valid walk."""
    good = cssg.reset
    for pattern in patterns:
        good = cssg.edges[good][pattern]
        yield pattern, good


@pytest.mark.parametrize("model", ["input", "output"])
def test_batch_equals_scalar_on_celem(celem, model):
    faults = fault_universe(celem, model)
    cssg = build_cssg(celem)
    patterns = walk_patterns(cssg, seed=4, length=6)
    walk = engine_for(celem, faults).walk(cssg.reset)
    scalar = [
        ternary.settle_from_reset(celem, cssg.reset, f) for f in faults
    ]
    for j in range(len(faults)):
        assert lane_of(walk.state(), j) == scalar[j]
    for pattern, good in walk_goods(cssg, patterns):
        walk.step(pattern, good)
        scalar = [
            ternary.apply_pattern(celem, s, pattern, f)
            for s, f in zip(scalar, faults)
        ]
        for j in range(len(faults)):
            assert lane_of(walk.state(), j) == scalar[j]


def test_observe_matches_scalar_detects(celem):
    faults = input_fault_universe(celem)
    cssg = build_cssg(celem)
    walk = engine_for(celem, faults).walk(cssg.reset)
    patterns = walk_patterns(cssg, seed=9, length=8)
    for pattern, good in walk_goods(cssg, patterns):
        mask = walk.step(pattern, good)
        for j, fault in enumerate(faults):
            expected = ternary.detects(celem, good, lane_of(walk.state(), j))
            assert bool((mask >> j) & 1) == expected


def test_empty_batch(celem):
    """An empty fault list grades nothing: random TPG and fault
    simulation return before building an engine, whose width would be
    the good machine's one."""
    cssg = build_cssg(celem)
    patterns = walk_patterns(cssg, seed=1, length=4)
    assert random_tpg(cssg, []) == ({}, [])
    assert fault_simulate(cssg, [], patterns) == []
    assert engine_for(celem, []).width == 1


def test_broadcast_is_definite(celem):
    faults = input_fault_universe(celem)[:3]
    engine = engine_for(celem, faults)
    low, high = engine.broadcast(celem.require_reset())
    for i in range(celem.n_signals):
        assert (low[i] & high[i]) == 0
        assert (low[i] | high[i]) == engine.ones


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 10))
def test_batch_equals_scalar_random_walks(seed, length):
    """Property: for random walks over the benchmark 'dff', every machine
    in the batch equals its scalar ternary twin after every cycle."""
    from repro.benchmarks_data import load_benchmark

    circuit = load_benchmark("dff", "complex")
    faults = input_fault_universe(circuit)
    cssg = build_cssg(circuit)
    patterns = walk_patterns(cssg, seed, length)
    walk = engine_for(circuit, faults).walk(cssg.reset)
    scalar = [ternary.settle_from_reset(circuit, cssg.reset, f) for f in faults]
    for pattern, good in walk_goods(cssg, patterns):
        walk.step(pattern, good)
        scalar = [
            ternary.apply_pattern(circuit, s, pattern, f)
            for s, f in zip(scalar, faults)
        ]
    for j in range(len(faults)):
        assert lane_of(walk.state(), j) == scalar[j]
