"""Exhaustive settling analysis under the unbounded gate-delay model.

Given a (usually unstable) start state — a stable state whose inputs were
just rewritten by an R_I step — this module explores every interleaving of
single-gate transitions and classifies the outcome (paper §2):

* **confluent**: every maximal path ends in the same stable state;
* **non-confluent**: two or more distinct stable states are reachable
  (a critical race; potential metastability);
* **oscillating**: the transition graph contains a cycle, so with
  unbounded delays the circuit may postpone stabilization indefinitely;
* **too slow**: the longest transition path exceeds the test-cycle bound
  ``k`` (paper §4.1: a k-step test cycle only waits for k transitions).

A vector is *valid* for the CSSG exactly when the outcome is confluent,
acyclic and within ``k`` (see :mod:`repro.sgraph.cssg`).  One
depth-first search decides all four at once (see :func:`settle_report`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.circuit.netlist import Circuit
from repro.errors import StateGraphError
from repro.obs import metrics as _obs


@dataclass(frozen=True)
class SettleReport:
    """Outcome of exploring all settling interleavings from one state."""

    start: int
    stable_states: FrozenSet[int]
    has_cycle: bool
    longest_path: Optional[int]  # None when the graph has a cycle
    n_states: int
    truncated: bool

    @property
    def confluent(self) -> bool:
        """Exactly one stable outcome (regardless of path lengths)."""
        return len(self.stable_states) == 1 and not self.has_cycle

    @property
    def oscillating(self) -> bool:
        return self.has_cycle

    @property
    def nonconfluent(self) -> bool:
        return len(self.stable_states) > 1

    def valid(self, k: int) -> bool:
        """True when the vector that produced ``start`` is CSSG_k-valid:
        a unique stable outcome reached by every path within k steps."""
        if self.truncated or self.has_cycle or len(self.stable_states) != 1:
            return False
        assert self.longest_path is not None
        return self.longest_path <= k

    @property
    def unique_stable(self) -> int:
        if len(self.stable_states) != 1:
            raise StateGraphError("settling is not confluent")
        return next(iter(self.stable_states))


def settle_report(circuit: Circuit, start: int, cap: int = 200_000) -> SettleReport:
    """Explore every gate-transition interleaving from ``start``.

    ``cap`` bounds the number of distinct states explored; blowing past it
    marks the report ``truncated`` (treated as invalid by the CSSG, which
    is conservative in the same direction as the paper's ternary check)
    and, when metrics are armed, counts it in
    ``repro_settle_truncations_total``.

    One iterative depth-first search answers all three questions.  A
    state is visited the first time the search reaches it, so stable
    states and the state count come from the visit order; an edge back
    to a state still on the search path closes a cycle; and a state's
    *height*, the longest transition path from it to a stable state, is
    known when the search leaves it.  The height of ``start`` is the
    |sigma| of paper §4.1: the worst-case number of gate transitions
    before the circuit is guaranteed stable.  Successors are visited
    last-first, which is the order a push-all stack pops them in, so a
    search cut at ``cap`` has explored the first ``cap`` states of that
    order.

    Excited-gate enumeration — the hot inner loop — runs through the
    compiled whole-circuit function of :mod:`repro.sim.engine` rather
    than per-gate program interpretation.
    """
    from repro.sim.engine import compiled

    excited_signals = compiled(circuit).excited_signals
    # Finished states map to their height, states on the path to -1.
    height: Dict[int, int] = {}
    get_height = height.get
    stable: List[int] = []
    # One frame per state on the path: (state, successors, iterator over
    # the successors not yet tried, last first).
    path: List[Tuple[int, List[int], Iterator[int]]] = []
    has_cycle = truncated = False
    state: Optional[int] = start
    while state is not None:
        if len(height) >= cap:
            truncated = True
            break
        excited = excited_signals(state)
        if excited:
            height[state] = -1
            succs = [state ^ (1 << gi) for gi in excited]
            path.append((state, succs, reversed(succs)))
        else:
            height[state] = 0
            stable.append(state)
        state = None
        while path:
            frame = path[-1]
            for child in frame[2]:
                h = get_height(child)
                if h is None:
                    state = child
                    break
                if h < 0:
                    has_cycle = True
            if state is not None:
                break
            path.pop()
            # Heights mean nothing once a cycle is seen; 0 still marks the
            # state finished, so later edges into it are not back edges.
            height[frame[0]] = 0 if has_cycle else 1 + max(
                map(height.__getitem__, frame[1])
            )

    if truncated:
        if _obs.enabled():
            _obs.get_registry().counter(
                "repro_settle_truncations_total",
                "Settling explorations cut short at their state cap.",
            ).inc()
        has_cycle = True
    return SettleReport(
        start=start,
        stable_states=frozenset(stable),
        has_cycle=has_cycle,
        longest_path=None if has_cycle else height[start],
        n_states=len(height),
        truncated=truncated,
    )
