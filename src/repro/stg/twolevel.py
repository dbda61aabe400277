"""Two-level logic minimization with don't-cares.

Small and exact — our next-state functions have at most ~10 variables,
so an exact prime generator is entirely adequate (Espresso would be
overkill).  Primes are generated from the OFF-set as its minimal
transversals (see ``compute_primes``): the OFF-set of a next-state
function is the handful of reachable codes where it is 0, while the
Quine–McCluskey merge over ON and DC would walk nearly all 2^nv codes.

Cubes are (ones, dashes) pairs over ``nv`` variables: a dash bit means
the variable is absent from the product term; otherwise the ``ones`` bit
gives its polarity.  Three cover flavours are offered:

* ``compute_primes`` — all prime implicants (the *complete sum*); used by
  the SIS-style back end, whose extra primes model the redundancy SIS
  introduces for hazard freedom (paper §6: redundant circuits test badly);
* ``irredundant_cover`` — essential primes plus a greedy set cover; used
  by the speed-independent complex-gate back end;
* ``exact_cover`` — branch-and-bound minimum cover, practical for the
  benchmark sizes and used by tests as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True, order=True)
class Cube:
    """A product term: variable i is absent when dash bit i is set,
    otherwise it appears with polarity (ones >> i) & 1."""

    ones: int
    dashes: int

    def covers(self, minterm: int) -> bool:
        return (minterm & ~self.dashes) == (self.ones & ~self.dashes)

    def literals(self, nv: int) -> List[Tuple[int, int]]:
        """(variable index, polarity) pairs of this product."""
        out = []
        for i in range(nv):
            if not (self.dashes >> i) & 1:
                out.append((i, (self.ones >> i) & 1))
        return out

    def __str__(self):
        # LSB-first dash notation, e.g. "1-0" for x0 & ~x2.
        return "cube(ones={:b}, dashes={:b})".format(self.ones, self.dashes)


def compute_primes(on: Iterable[int], dc: Iterable[int], nv: int) -> List[Cube]:
    """All prime implicants of the (ON, DC) incompletely-specified
    function, filtered to those covering at least one ON minterm.

    A cube is an implicant exactly when every OFF minterm disagrees with
    at least one of its literals, so the primes are the minimal
    consistent literal sets that hit every OFF minterm (the minimal
    transversals of the OFF-set).  They are built one OFF minterm at a
    time: a cube that already disagrees with it is kept, every other
    cube grows by one literal opposing it, and a grown cube is dropped
    when a surviving one subsumes it.  Cubes are raw ``(ones, care)``
    int pairs until the end.

    The work scales with the OFF-set, not with 2^nv.  Synthesis with
    ``dc_policy="dc"`` has an OFF-set of the reachable codes whose next
    state is 0, at most a few dozen; ``dc_policy="off"`` makes every
    code outside ON part of the OFF-set, which costs far more here than
    a merge over the ON-set would.  Only tests use that policy.
    """
    on = set(on)
    care_set = on | set(dc)
    full = (1 << nv) - 1
    bits = [1 << i for i in range(nv)]
    cubes: List[Tuple[int, int]] = [(0, 0)]  # the all-dash cube
    for m in range(1 << nv):
        if m in care_set:
            continue
        kept: List[Tuple[int, int]] = []
        grown: List[Tuple[int, int]] = []
        for ones, care in cubes:
            if (ones ^ m) & care:
                kept.append((ones, care))
                continue
            for b in bits:
                if not care & b:
                    grown.append((ones | (b & ~m), care | b))
        # A kept cube is never subsumed by a grown one (the cube it grew
        # from would subsume the kept cube), so only grown cubes need the
        # check.  Fewer literals first: a subsuming cube is never longer.
        grown = sorted(set(grown), key=lambda c: bin(c[1]).count("1"))
        for ones, care in grown:
            if not any(
                not (c & ~care) and not ((o ^ ones) & c) for o, c in kept
            ):
                kept.append((ones, care))
        cubes = kept
    return sorted(
        c
        for c in (Cube(ones, full & ~care) for ones, care in cubes)
        if any(c.covers(m) for m in on)
    )


def _coverage(primes: Sequence[Cube], on: Set[int]) -> Dict[Cube, FrozenSet[int]]:
    return {p: frozenset(m for m in on if p.covers(m)) for p in primes}


def irredundant_cover(
    primes: Sequence[Cube], on: Iterable[int]
) -> List[Cube]:
    """Essential primes + greedy completion, then redundancy pruning.

    The result covers every ON minterm and contains no cube whose removal
    leaves the cover complete (it is irredundant, not necessarily
    minimum).
    """
    on = set(on)
    if not on:
        return []
    cov = _coverage(primes, on)
    chosen: List[Cube] = []
    covered: Set[int] = set()
    # Essential primes: sole cover of some minterm.
    for m in on:
        owners = [p for p in primes if m in cov[p]]
        if len(owners) == 1 and owners[0] not in chosen:
            chosen.append(owners[0])
            covered |= cov[owners[0]]
    # Greedy for the rest.
    remaining = on - covered
    pool = [p for p in primes if p not in chosen]
    while remaining:
        best = max(pool, key=lambda p: (len(cov[p] & remaining), -bin(p.dashes).count("0")))
        gain = cov[best] & remaining
        if not gain:
            raise ValueError("prime set cannot cover the ON set (internal bug)")
        chosen.append(best)
        covered |= gain
        remaining -= gain
        pool.remove(best)
    # Prune now-redundant cubes (later greedy picks can obsolete earlier ones).
    pruned = list(chosen)
    for cube in sorted(chosen, key=lambda p: len(cov[p])):
        rest = [c for c in pruned if c != cube]
        if rest and set().union(*(cov[c] for c in rest)) >= on:
            pruned = rest
    return sorted(pruned)


def hazard_aware_cover(
    primes: Sequence[Cube],
    on: Iterable[int],
    pairs: Iterable[Tuple[int, int]],
) -> Tuple[List[Cube], List[Tuple[int, int]]]:
    """Greedy cover of ON minterms *and* static-1 hand-off pairs.

    ``pairs`` are (code, code') endpoints of single-signal transitions
    across which the function stays 1; a hazard-free SOP realization with
    per-product gates needs one cube covering *both* endpoints, else the
    OR gate can glitch while products hand off (Eichelberger/Unger).

    Returns ``(cover, uncoverable_pairs)`` — pairs no prime spans are
    reported rather than fatal (such functions admit no hazard-free
    two-level cover; the CSSG will simply prune the affected vectors).
    """
    on = set(on)
    pairs = set(pairs)
    coverable = {
        pair: [p for p in primes if p.covers(pair[0]) and p.covers(pair[1])]
        for pair in pairs
    }
    uncoverable = sorted(pair for pair, owners in coverable.items() if not owners)
    items: Set[object] = set(on) | {
        ("pair",) + pair for pair in pairs if coverable[pair]
    }

    def items_of(p: Cube) -> Set[object]:
        got: Set[object] = {m for m in on if p.covers(m)}
        for pair in pairs:
            if p.covers(pair[0]) and p.covers(pair[1]):
                got.add(("pair",) + pair)
        return got

    cov = {p: frozenset(items_of(p)) for p in primes}
    chosen: List[Cube] = []
    covered: Set[object] = set()
    for item in items:
        owners = [p for p in primes if item in cov[p]]
        if len(owners) == 1 and owners[0] not in chosen:
            chosen.append(owners[0])
            covered |= cov[owners[0]]
    remaining = items - covered
    pool = [p for p in primes if p not in chosen]
    while remaining:
        best = max(pool, key=lambda p: (len(cov[p] & remaining), p.dashes))
        gain = cov[best] & remaining
        if not gain:
            raise ValueError("prime set cannot cover required items (internal bug)")
        chosen.append(best)
        covered |= gain
        remaining -= gain
        pool.remove(best)
    pruned = list(chosen)
    for cube in sorted(chosen, key=lambda p: len(cov[p])):
        rest = [c for c in pruned if c != cube]
        if rest and set().union(*(cov[c] for c in rest)) >= items:
            pruned = rest
    return sorted(pruned), uncoverable


def exact_cover(primes: Sequence[Cube], on: Iterable[int]) -> List[Cube]:
    """Minimum-cardinality prime cover via branch and bound (test oracle)."""
    on = sorted(set(on))
    if not on:
        return []
    cov = _coverage(primes, set(on))
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


def cover_eval(cover: Sequence[Cube], minterm: int) -> int:
    """Evaluate a cover at a minterm (1 when any cube covers it)."""
    return 1 if any(c.covers(minterm) for c in cover) else 0


def verify_cover(
    cover: Sequence[Cube], on: Iterable[int], off: Iterable[int]
) -> bool:
    """True when the cover is 1 on all of ON and 0 on all of OFF."""
    return all(cover_eval(cover, m) for m in on) and not any(
        cover_eval(cover, m) for m in off
    )
