"""Two-level minimization with don't-cares, vs brute force, vs a
branch-and-bound minimum cover, and vs a Quine–McCluskey reference for
the prime generator."""

import itertools
import json
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks_data import TABLE1_NAMES, TABLE2_NAMES
from repro.benchmarks_data.registry import load_benchmark_stg
from repro.stg import synthesis
from repro.stg.parser import parse_stg
from repro.stg.reachability import build_state_graph
from repro.stg.twolevel import (
    Cube,
    compute_primes,
    cover_eval,
    hazard_aware_cover,
    irredundant_cover,
)

FUZZ_DIR = Path(__file__).resolve().parent / "data" / "fuzz"


def reference_primes(on, dc, nv: int) -> List[Cube]:
    """Quine–McCluskey: merge ON+DC cubes that differ in one variable,
    level by level; the cubes no merge consumed are the primes.  Same
    contract as ``compute_primes``."""
    on = set(on)
    dc = set(dc) - on
    bits = [1 << i for i in range(nv)]
    current: Dict[int, Set[int]] = {0: set(on | dc)}
    primes: List[Tuple[int, int]] = []
    while current:
        next_level: Dict[int, Set[int]] = {}
        for dashes, values in current.items():
            free = [b for b in bits if not (dashes & b)]
            combined: Set[int] = set()
            for ones in values:
                for b in free:
                    if ones & b:
                        continue
                    partner = ones | b
                    if partner in values:
                        next_level.setdefault(dashes | b, set()).add(ones)
                        combined.add(ones)
                        combined.add(partner)
            for ones in values - combined:
                primes.append((ones, dashes))
        current = next_level
    return sorted(
        c
        for c in (Cube(ones, dashes) for ones, dashes in primes)
        if any(c.covers(m) for m in on)
    )


def exact_cover(primes: Sequence[Cube], on: Iterable[int]) -> List[Cube]:
    """Minimum-cardinality prime cover via branch and bound."""
    on = sorted(set(on))
    if not on:
        return []
    cov = {p: frozenset(m for m in on if p.covers(m)) for p in primes}
    best: Optional[List[Cube]] = None

    def search(remaining: FrozenSet[int], chosen: List[Cube]):
        nonlocal best
        if best is not None and len(chosen) >= len(best):
            return
        if not remaining:
            best = list(chosen)
            return
        # Branch on the hardest minterm (fewest covering primes).
        m = min(remaining, key=lambda x: sum(1 for p in primes if x in cov[p]))
        for p in primes:
            if m in cov[p]:
                search(remaining - cov[p], chosen + [p])

    search(frozenset(on), [])
    assert best is not None
    return sorted(best)


def verify_cover(
    cover: Sequence[Cube], on: Iterable[int], off: Iterable[int]
) -> bool:
    """True when the cover is 1 on all of ON and 0 on all of OFF."""
    return all(cover_eval(cover, m) for m in on) and not any(
        cover_eval(cover, m) for m in off
    )


def test_cube_covers_and_literals():
    # x0 & ~x2 over 3 vars: dashes on x1.
    cube = Cube(ones=0b001, dashes=0b010)
    assert cube.covers(0b001) and cube.covers(0b011)
    assert not cube.covers(0b101) and not cube.covers(0b000)
    assert cube.literals(3) == [(0, 1), (2, 0)]


def test_primes_of_xor_are_minterms():
    on = [0b01, 0b10]
    primes = compute_primes(on, [], 2)
    assert sorted(primes) == sorted([Cube(0b01, 0), Cube(0b10, 0)])


def test_primes_merge_with_dc():
    # ON = {11}, DC = {10}: prime expands over x1 -> cube x0 (x1 dashed)?
    # Bits: var0 = LSB.  {0b11, 0b10} merge over var0 -> ones=0b10, dash 0b01.
    primes = compute_primes([0b11], [0b10], 2)
    assert Cube(0b10, 0b01) in primes


def test_primes_filtered_to_on_relevant():
    # A prime covering only DC minterms must not be returned.
    primes = compute_primes([0b00], [0b11], 2)
    for p in primes:
        assert p.covers(0b00)


def full_function_cases():
    # (on, dc, nv) triples exercising classic shapes.
    return [
        ([3, 5, 6, 7], [], 3),          # majority
        ([0, 1, 2, 3], [], 3),          # ~x2
        ([1, 2], [3], 2),               # or with dc
        ([0, 7], [], 3),                # two isolated minterms
        ([0, 1, 4, 5, 6], [2], 3),
    ]


@pytest.mark.parametrize("on,dc,nv", full_function_cases())
def test_irredundant_cover_correct_and_irredundant(on, dc, nv):
    off = [m for m in range(1 << nv) if m not in on and m not in dc]
    primes = compute_primes(on, dc, nv)
    cover = irredundant_cover(primes, on)
    assert verify_cover(cover, on, off)
    # Irredundancy: removing any cube must break ON coverage.
    for cube in cover:
        rest = [c for c in cover if c != cube]
        assert not all(cover_eval(rest, m) for m in on)


@pytest.mark.parametrize("on,dc,nv", full_function_cases())
def test_exact_cover_is_minimum(on, dc, nv):
    primes = compute_primes(on, dc, nv)
    best = exact_cover(primes, on)
    assert all(cover_eval(best, m) for m in on)
    # No smaller subset of primes covers ON.
    for size in range(len(best)):
        for subset in itertools.combinations(primes, size):
            assert not all(cover_eval(list(subset), m) for m in on)


@pytest.mark.parametrize("on,dc,nv", full_function_cases())
def test_irredundant_at_least_exact_size(on, dc, nv):
    primes = compute_primes(on, dc, nv)
    assert len(irredundant_cover(primes, on)) >= len(exact_cover(primes, on))


def test_hazard_aware_cover_keeps_spanning_cube():
    # f = majority(a,b,c).  Transition 011 -> 111 stays 1; cube bc spans
    # it, while {ab, ac} alone would glitch.
    on = [3, 5, 6, 7]
    primes = compute_primes(on, [], 3)
    cover, uncoverable = hazard_aware_cover(primes, on, [(0b110, 0b111)])
    assert not uncoverable
    assert any(c.covers(0b110) and c.covers(0b111) for c in cover)
    assert verify_cover(cover, on, [0, 1, 2, 4])


def test_hazard_aware_reports_uncoverable_pairs():
    # f = xor: 01 and 10 are both ON but no single cube spans them.
    on = [1, 2]
    primes = compute_primes(on, [], 2)
    cover, uncoverable = hazard_aware_cover(primes, on, [(1, 2)])
    assert uncoverable == [(1, 2)]
    assert verify_cover(cover, on, [0, 3])


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 4),
    st.data(),
)
def test_random_functions_minimize_correctly(nv, data):
    universe = list(range(1 << nv))
    on = data.draw(st.sets(st.sampled_from(universe)))
    rest = [m for m in universe if m not in on]
    dc = data.draw(st.sets(st.sampled_from(rest))) if rest else set()
    off = [m for m in universe if m not in on and m not in dc]
    primes = compute_primes(on, dc, nv)
    if not on:
        assert primes == []
        return
    cover = irredundant_cover(primes, on)
    assert verify_cover(cover, on, off)
    complete = primes
    assert verify_cover(complete, on, off)
    # Every prime must be a genuine implicant of ON+DC and prime
    # (expanding any literal hits OFF).
    care = set(on) | set(dc)
    for p in primes:
        for m in universe:
            if p.covers(m):
                assert m in care
        for i in range(nv):
            if not (p.dashes >> i) & 1:
                grown = Cube(p.ones & ~(1 << i), p.dashes | (1 << i))
                assert any(grown.covers(m) for m in off)


# -- compute_primes against the Quine–McCluskey reference -----------------


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), st.data())
def test_primes_match_reference_on_random_functions(nv, data):
    universe = list(range(1 << nv))
    on = data.draw(st.sets(st.sampled_from(universe)))
    dc = data.draw(st.sets(st.sampled_from(universe)))
    assert compute_primes(on, dc, nv) == reference_primes(on, dc, nv)


def _corpus_stgs():
    """``(label, stg, style)`` for the Table-1 complex and Table-2
    two-level corpora and the fuzz corpus's STG specs."""
    for name in TABLE1_NAMES:
        yield name, load_benchmark_stg(name), "complex"
    for name in TABLE2_NAMES:
        yield name, load_benchmark_stg(name), "two-level"
    manifest = json.loads((FUZZ_DIR / "manifest.json").read_text())
    for entry in manifest["entries"]:
        if entry["kind"] == "stg":
            text = (FUZZ_DIR / entry["file"]).read_text()
            yield entry["file"], parse_stg(text), entry["style"]


def test_primes_match_reference_on_every_corpus_cover(monkeypatch):
    calls = []

    def record(on, dc, nv):
        calls.append((on, dc, nv))
        return compute_primes(on, dc, nv)

    monkeypatch.setattr(synthesis, "compute_primes", record)
    checked = 0
    for label, stg, style in _corpus_stgs():
        calls.clear()
        synthesis.synthesize(stg, style=style)
        for on, dc, nv in calls:
            assert compute_primes(on, dc, nv) == reference_primes(on, dc, nv), label
        checked += len(calls)
    assert checked > 100


def test_primes_without_variables():
    assert compute_primes([0], [], 0) == [Cube(0, 0)]
    assert compute_primes([], [0], 0) == []
    assert compute_primes([], [], 0) == []


def test_primes_of_empty_on_set():
    assert compute_primes([], [1, 2], 3) == []
    assert compute_primes([], [], 3) == []


def test_primes_of_empty_off_set_is_one_all_dash_cube():
    assert compute_primes([0, 5], set(range(8)), 3) == [Cube(0, 0b111)]
    assert compute_primes(range(8), [], 3) == [Cube(0, 0b111)]


def test_primes_match_reference_under_dc_policy_off():
    sg = build_state_graph(load_benchmark_stg(TABLE2_NAMES[0]))
    nv = len(sg.stg.signals)
    for signal in sg.stg.non_input_signals:
        cubes, on, off = synthesis.next_state_cover(
            sg, signal, "complete", dc_policy="off"
        )
        assert cubes == reference_primes(on, [], nv)
        assert verify_cover(cubes, on, off)
