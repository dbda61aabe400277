"""Random test pattern generation on the CSSG (paper §5.4).

Random TPG walks the CSSG from the reset state choosing a uniformly random
valid input vector at each step, while one engine
(:class:`~repro.sim.engine.SimEngine`) simulates all still-undetected
faulty machines in parallel, one machine per bit of a word, through the
compiled arena walk kernel (:mod:`repro.sim.arena`).
The paper reports 40–80% (average ~45%) of faults falling to this step at
negligible CPU cost; the remainder go to the 3-phase deterministic
generator.

Detection is conservative exactly as in the paper: a fault counts as
covered only when some primary output *definitely* differs (ternary
simulation may under-report, never over-report).

Walks do not hunt faults that cannot be caught.  After the first walk
that detects nothing new, the optional ``prove_undetectable`` hook is
offered the faults still undetected, once; the subset it proves
undetectable (in the staged flow: three-phase's exhausted product
search, see :mod:`repro.flow.stages`) leaves the walk mask, and the
walks end as soon as every remaining fault is caught.  Detection being
sound, no later walk could have caught a proven fault, so the random
stream, the detections and the trimmed tests are those of a run without
the hook.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro._bits import iter_set_bits
from repro.circuit.faults import Fault
from repro.core.sequences import Test
from repro.sgraph.cssg import Cssg
from repro.sim.engine import engine_for


def random_tpg(
    cssg: Cssg,
    faults: Sequence[Fault],
    n_walks: int = 16,
    walk_len: int = 64,
    seed: int = 0,
    rng: Optional[random.Random] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    on_walk: Optional[Callable[[int, int], None]] = None,
    prove_undetectable: Optional[
        Callable[[List[Fault]], Iterable[Fault]]
    ] = None,
) -> Tuple[Dict[Fault, Tuple[int, ...]], List[Test]]:
    """Run random TPG; returns (detected fault -> sequence, kept tests).

    Each walk starts from reset (as a tester would).  A walk is recorded
    as a :class:`Test` — trimmed to its last useful cycle — whenever it
    detects at least one previously undetected fault.

    One engine holds every fault, and each walk runs through its
    compiled arena kernel — state lives inside the kernel and each
    cycle returns its detection mask directly
    (:meth:`~repro.sim.engine.SimEngine.walk`).

    Cooperative hooks for the staged flow: ``rng`` supplies the random
    stream (must be freshly seeded for reproducibility; overrides
    ``seed``), ``should_stop`` is polled before each walk so a run
    budget can cut the stage short at a walk boundary (everything
    already detected stays detected), ``on_walk(walk_index,
    n_detected_so_far)`` reports per-walk progress, and
    ``prove_undetectable(faults)`` returns the subset of ``faults`` it
    proves undetectable.  It is called at most once, after the first
    walk that detects nothing new while faults remain undetected; the
    proven faults stop being hunted (see the module docstring).
    """
    if not faults:
        return {}, []
    if rng is None:
        rng = random.Random(seed)
    engine = engine_for(cssg.circuit, faults)
    undetected = engine.ones
    bit_of = {fault: j for j, fault in enumerate(faults)}
    detected_by: Dict[Fault, Tuple[int, ...]] = {}
    tests: List[Test] = []

    for walk_index in range(n_walks):
        if not undetected:
            break
        if should_stop is not None and should_stop():
            break
        walk = engine.walk(cssg.reset)
        good = cssg.reset
        patterns: List[int] = []
        walk_new: List[Tuple[int, int]] = []  # (cycle index, new-detections mask)
        # Observation 0: the forced reset state itself may expose faults.
        new = walk.observe(good) & undetected
        if new:
            walk_new.append((0, new))
            undetected &= ~new
        for step in range(walk_len):
            if not undetected:
                break
            choices = sorted(cssg.valid_patterns(good))
            if not choices:
                break
            pattern = rng.choice(choices)
            patterns.append(pattern)
            good = cssg.edges[good][pattern]
            new = walk.step(pattern, good) & undetected
            if new:
                walk_new.append((len(patterns), new))
                undetected &= ~new
        if walk_new:
            last_useful = walk_new[-1][0]
            covered: List[Fault] = []
            for _, mask in walk_new:
                for j in iter_set_bits(mask):
                    fault = faults[j]
                    covered.append(fault)
                    detected_by[fault] = tuple(patterns[:last_useful])
            tests.append(
                Test(tuple(patterns[:last_useful]), covered, source="random")
            )
        elif undetected and prove_undetectable is not None:
            proven = prove_undetectable(
                [faults[j] for j in iter_set_bits(undetected)]
            )
            prove_undetectable = None  # one proof per run
            for fault in proven:
                undetected &= ~(1 << bit_of[fault])
        if on_walk is not None:
            on_walk(walk_index, len(detected_by))
    return detected_by, tests
