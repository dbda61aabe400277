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
The CSSG first tries a ternary certificate with a transition bound
(:func:`transition_bound`), and runs this search on the starts it
refuses.

The exact faulty machine (:mod:`repro.core.exact_sim`) needs the first
three only.  :func:`reduced_settle_report` answers them from a
stubborn-set-reduced subgraph, which keeps every stable state and every
reachable cycle but not path lengths; its docstring states the two
theorems and their proof sketches.  With metrics armed, both explorers
add the states they visit to
``repro_settle_states_total{explorer="full"|"reduced"}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro._bits import iter_set_bits
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
        a unique stable outcome reached by every path within k steps.

        A height-free report (:func:`reduced_settle_report`) cannot
        answer the k-bound and raises :class:`StateGraphError`."""
        if self.truncated or self.has_cycle or len(self.stable_states) != 1:
            return False
        if self.longest_path is None:
            raise StateGraphError(
                "settle report carries no height (reduced exploration); "
                "CSSG validity needs settle_report"
            )
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
    ``repro_settle_truncations_total``.  This is the differential
    reference for :func:`reduced_settle_report`.

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
        has_cycle = True
    if _obs.enabled():
        _count(len(height), truncated, "full")
    return SettleReport(
        start=start,
        stable_states=frozenset(stable),
        has_cycle=has_cycle,
        longest_path=None if has_cycle else height[start],
        n_states=len(height),
        truncated=truncated,
    )


def _count(n_states: int, truncated: bool, explorer: str) -> None:
    registry = _obs.get_registry()
    registry.counter(
        "repro_settle_states_total",
        "States visited by settling explorations.",
        ("explorer",),
    ).labels(explorer).inc(n_states)
    if truncated:
        registry.counter(
            "repro_settle_truncations_total",
            "Settling explorations cut short at their state cap.",
        ).inc()


def read_masks(
    circuit: Circuit, supports: Optional[Dict[int, Sequence[int]]] = None
) -> List[int]:
    """Per signal, the bitmask of the non-input signals its gate reads
    (0 for an input; inputs never move while settling).  ``supports``
    (gate index → support) overrides the supports of the gates a
    patched faulty machine rewrites: a bridged gate reads its partner's
    support too."""
    supports = supports or {}
    reads = [0] * circuit.n_signals
    for gate in circuit.gates:
        m = 0
        for src in supports.get(gate.index, gate.support):
            if src >= circuit.n_inputs:
                m |= 1 << src
        reads[gate.index] = m
    return reads


def transition_bound(
    gates: int, reads: Sequence[int], fired: int = 0
) -> Optional[int]:
    """The most gate transitions any interleaving can take when only
    the gates of the bitmask ``gates`` can move, or None when they read
    one another in a cycle; a gate that reads itself is a cycle.

    ``reads`` are the :func:`read_masks` of the machine, and ``fired``
    holds the gates that may be excited at the start: at a stable state
    whose inputs just moved, the gates that read a moved input.  The
    gates are peeled round by round, each round taking those that read
    none of the gates left, so a gate's readings are counted before it:
    ``fires(g) = [g in fired] + sum(fires(i))`` over the gates ``i`` of
    ``gates`` that ``g`` reads, and the bound is the sum of ``fires``.
    A gate fires at most once before, and at most once after each
    firing of, a moving gate it reads; no other signal moves
    (``docs/architecture.md`` sketches the argument)."""
    fires: Dict[int, int] = {}  # gate -> its fires
    bound = 0
    left = gates
    while left:
        peel = [g for g in iter_set_bits(left) if not reads[g] & left]
        if not peel:
            return None
        for g in peel:
            left ^= 1 << g
        if not fired:  # with nothing fired, every count is 0
            continue
        for g in peel:
            n = fired >> g & 1
            for i in iter_set_bits(reads[g] & gates):
                n += fires[i]
            fires[g] = n
            bound += n
    return bound


class _Stubborn:
    """A circuit's dependence masks, for the stubborn-set closure.

    Bit ``g`` of a mask is gate signal ``g``; inputs never move while
    settling, so no mask holds one.  ``cone[g]`` is gate ``g`` and every
    gate it reads, transitively; ``fan_cone[g]`` is the union of the
    cones of the gates that read ``g``.  Built from the gates'
    :func:`read_masks` alone: no code is generated.  A patched faulty
    machine passes the masks of its patched supports, since the good
    circuit's would miss the dependences a bridge adds.
    """

    __slots__ = ("cone", "fan_cone")

    def __init__(self, circuit: Circuit, reads: Sequence[int]):
        gates = [gate.index for gate in circuit.gates]
        cone = [0] * circuit.n_signals
        for g in gates:
            cone[g] = (1 << g) | reads[g]
        for k in gates:  # Warshall: close the read relation
            for g in gates:
                if cone[g] >> k & 1:
                    cone[g] |= cone[k]
        fan_cone = [0] * circuit.n_signals
        for g in gates:
            for src in iter_set_bits(reads[g]):
                fan_cone[src] |= cone[g]
        self.cone = cone
        self.fan_cone = fan_cone

    def fire(self, excited: List[int]) -> List[int]:
        """Transition masks of the enabled gates of the smallest strong
        stubborn set grown from one excited gate.

        The closure rules (see :func:`reduced_settle_report`) pull every
        gate a member reads into the set, enabled or not, so a closed
        set is a union of read cones, and the closure of a seed is its
        cone plus, for each enabled member, the cones of its readers.
        Only enabled members drive the loop."""
        cone, fan_cone = self.cone, self.fan_cone
        enabled = 0
        for g in excited:
            enabled |= 1 << g
        best = enabled
        best_n = len(excited)
        for seed in excited:
            closed = cone[seed]
            todo = closed & enabled
            while todo:
                low = todo & -todo
                todo ^= low
                pull = fan_cone[low.bit_length() - 1] & ~closed
                closed |= pull
                todo |= pull & enabled
            reach = closed & enabled
            if reach != best:
                n = bin(reach).count("1")
                if n < best_n:
                    best, best_n = reach, n
                    if n == 1:
                        break
        return [1 << g for g in excited if best >> g & 1]


def _stubborn(circuit: Circuit) -> _Stubborn:
    tables = getattr(circuit, "_stubborn", None)
    if tables is None:
        tables = circuit._stubborn = _Stubborn(circuit, read_masks(circuit))
    return tables


def reduced_settle_report(machine, start: int, cap: int = 200_000) -> SettleReport:
    """:func:`settle_report`'s stable states, cycle flag and truncation
    flag, exploring only a stubborn-set-reduced subgraph.

    ``machine`` is a :class:`Circuit`, explored through its own compiled
    excited-gate function and dependence masks, or a patched faulty
    machine (:class:`repro.core.exact_sim.PatchedMachine`), which
    supplies both: the good circuit's compiled function plus its patch,
    and masks built from its patched supports.

    The report is *height-free*: ``longest_path`` is None, and asking it
    for CSSG validity raises :class:`StateGraphError` (the CSSG's k-bound
    needs every interleaving's length, so the starts its certificate
    refuses run :func:`settle_report`).
    ``n_states`` counts reduced states, and so does ``cap``.

    Transitions are gates: gate g switches state s to s ^ 2^g when g is
    excited.  Two gates are *dependent* when one reads the other.  At
    each state a **strong stubborn set** T is closed over two rules:

    * an enabled gate in T brings every gate it depends on (the
      non-input gates it reads and the gates reading it);
    * a disabled gate in T brings a *necessary enabling set*: its
      non-input support minus itself, one of which must switch before
      it can become excited.

    Only T's enabled gates are expanded.  T is a pure function of the
    set of excited gates, hence of the state: each excited gate seeds a
    closure and the one with the fewest enabled gates wins (lowest seed
    first on ties).  Two results make the reduced answer exact:

    **Deadlock preservation** (Valmari, "Stubborn sets for reduced state
    space generation", 1990).  Every stable state reachable from s is
    reachable in the reduced graph.  Sketch: let w lead from an unstable
    s to a stable d.  If w held no gate of T, an enabled t in T would
    stay enabled along w, since only gates t reads can disable it and
    those are in T, so d would not be stable.  Let t be the first gate
    of T in w.  t is enabled at s: had it been disabled, a gate of its
    enabling set, which lies in T, would have had to fire before it.
    The gates before t are outside T, so t is independent of each of
    them and commutes to the front: s -t-> s' and a path one shorter
    leads from s' to d.  Induction on |w|.  The converse is free, as
    reduced edges are edges.

    **Cycle preservation** (Godefroid, *Partial-Order Methods for the
    Verification of Concurrent Systems*, LNCS 1032, 1996).  If a cycle
    is reachable from s, so is a cycle of the reduced graph.  Sketch:
    take an infinite run w from s.  If w holds a gate of T, the first
    such gate t commutes to the front as above.  Otherwise any enabled
    t in T is a *key* transition: no gate of w reads t or is read by
    it, so t stays enabled along w, and t.w is a run.  Either way s has
    a reduced successor s' with an infinite run from s'.  Repeating
    gives an infinite reduced path; the state space is finite, so the
    path closes a reduced cycle, which is a cycle of the full graph.
    A reduction that kept only deadlocks would hide oscillation.

    **The cap.**  Reduced states are a subset of full states, so a
    reduced search that hits ``cap`` implies a full search that would
    too.  The converse fails: a start the full explorer truncates can
    finish here with an exact answer.  The ``reduced_settle`` fuzz
    oracle counts those starts apart from divergences.

    Successor order changes nothing an untruncated report holds, so the
    search is the same depth-first walk as :func:`settle_report`,
    keeping only an on-path flag per state.  The dependence masks are
    built once per circuit from its gate supports (:class:`_Stubborn`).
    """
    if isinstance(machine, Circuit):
        from repro.sim.engine import compiled

        excited_signals = compiled(machine).excited_signals
        fire = _stubborn(machine).fire
    else:
        excited_signals = machine.excited_signals
        fire = machine.stubborn.fire
    # Visited states: True while on the search path, False once left.
    on_path: Dict[int, bool] = {}
    get_on_path = on_path.get
    stable: List[int] = []
    # One frame per state on the path: (state, iterator over the
    # transition masks not yet tried).
    path: List[Tuple[int, Iterator[int]]] = []
    has_cycle = truncated = False
    state: Optional[int] = start
    while state is not None:
        if len(on_path) >= cap:
            truncated = True
            break
        excited = excited_signals(state)
        if excited:
            on_path[state] = True
            path.append((state, iter(fire(excited))))
        else:
            on_path[state] = False
            stable.append(state)
        state = None
        while path:
            here, flips_left = path[-1]
            for flip in flips_left:
                child = here ^ flip
                seen = get_on_path(child)
                if seen is None:
                    state = child
                    break
                if seen:
                    has_cycle = True
            if state is not None:
                break
            path.pop()
            on_path[here] = False

    if truncated:
        has_cycle = True
    if _obs.enabled():
        _count(len(on_path), truncated, "reduced")
    return SettleReport(
        start=start,
        stable_states=frozenset(stable),
        has_cycle=has_cycle,
        longest_path=None,
        n_states=len(on_path),
        truncated=truncated,
    )
