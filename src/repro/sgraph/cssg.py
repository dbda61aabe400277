"""The k-Confluent Stable State Graph (paper §4).

The CSSG is the synchronous abstraction of the asynchronous circuit: its
nodes are reachable stable states, and an edge ``s --x--> t`` exists when
driving the inputs to pattern ``x`` from stable state ``s`` makes *every*
gate-transition interleaving settle in the same stable state ``t`` within
at most ``k`` transitions.  Vectors causing non-confluence, oscillation or
over-long settling are pruned; what is left behaves like a deterministic
synchronous FSM, so standard sequential ATPG applies (paper §5).

Construction is a breadth-first traversal from the reset state: for each
stable state, every input pattern (optionally limited to a maximum number
of simultaneously changing pins) is analysed with
:func:`repro.sgraph.explore.settle_report`.  Reports are memoized on the
post-R_I state, since distinct (state, pattern) pairs can coincide there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro._bits import hamming
from repro.circuit.netlist import Circuit
from repro.errors import StateGraphError
from repro.sgraph.explore import settle_report


@dataclass
class CssgStats:
    """Construction accounting: vector-validity counters, plus — for the
    symbolic builder — the paper-table state counts and kernel metrics
    (peak BDD nodes, image iterations)."""

    n_vectors_tried: int = 0
    n_valid: int = 0
    n_nonconfluent: int = 0
    n_oscillating: int = 0
    n_too_slow: int = 0
    n_phi: int = 0  # ternary method: rejected with uncertain outcome
    max_settle_path: int = 0
    #: The validity analysis that actually ran ("exact" / "ternary" /
    #: "hybrid" / "symbolic"; "auto" is resolved before construction).
    method: str = ""
    #: TCSG reachable-state count (symbolic builder only; 0 = unknown).
    n_tcsg_states: int = 0
    # Symbolic-kernel metrics (zero for the explicit builders):
    peak_bdd_nodes: int = 0
    #: Always 0: the kernel neither collects nor reorders.  Kept so
    #: payloads, golden digests and job keys stay byte-identical.
    n_gc_passes: int = 0
    n_reorders: int = 0
    n_image_iterations: int = 0


@dataclass(frozen=True)
class CssgSummary:
    """The CSSG facts a serialized result keeps: enough for reports and
    :meth:`repro.core.atpg.AtpgResult.summary`, without the full state
    graph.  Field order is the payload's ``cssg`` block key order.

    ``method`` is the *resolved* construction method ("auto" never
    appears here); the remaining fields are the symbolic-kernel metrics,
    zero when an explicit builder ran.  Every field after ``n_edges``
    is the :class:`CssgStats` field of the same name."""

    k: int
    reset: int
    n_states: int
    n_edges: int
    method: str = ""
    n_tcsg_states: int = 0
    peak_bdd_nodes: int = 0
    n_gc_passes: int = 0
    n_reorders: int = 0
    n_image_iterations: int = 0


#: The :class:`CssgStats` fields a :class:`CssgSummary` keeps.
_SUMMARY_STATS = tuple(
    f.name
    for f in fields(CssgSummary)
    if f.name in {s.name for s in fields(CssgStats)}
)


@dataclass
class Cssg:
    """The synchronous finite-state abstraction of an async circuit."""

    circuit: Circuit
    k: int
    reset: int
    states: Set[int] = field(default_factory=set)
    edges: Dict[int, Dict[int, int]] = field(default_factory=dict)
    stats: CssgStats = field(default_factory=CssgStats)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_edges(self) -> int:
        return sum(len(e) for e in self.edges.values())

    @property
    def method(self) -> str:
        """The validity analysis that built this graph (see stats)."""
        return self.stats.method

    def summary(self) -> CssgSummary:
        """This graph's :class:`CssgSummary`: its size plus the stats
        fields the summary names."""
        return CssgSummary(
            k=self.k,
            reset=self.reset,
            n_states=self.n_states,
            n_edges=self.n_edges,
            **{name: getattr(self.stats, name) for name in _SUMMARY_STATS},
        )

    def valid_patterns(self, state: int) -> Dict[int, int]:
        """Map {input pattern: successor stable state} for ``state``."""
        return self.edges.get(state, {})

    def successor(self, state: int, pattern: int) -> Optional[int]:
        return self.edges.get(state, {}).get(pattern)

    # -- justification support (paper §5.2) -----------------------------

    def bfs_tree(self) -> Tuple[Dict[int, int], Dict[int, Tuple[int, int]]]:
        """Shortest-path tree from the reset state.

        Returns ``(dist, parent)`` where ``parent[t] = (s, pattern)`` is
        the tree edge reaching ``t``.  Deterministic: patterns are tried
        in increasing numeric order.
        """
        dist = {self.reset: 0}
        parent: Dict[int, Tuple[int, int]] = {}
        frontier = [self.reset]
        while frontier:
            nxt: List[int] = []
            for s in frontier:
                for pattern in sorted(self.edges.get(s, {})):
                    t = self.edges[s][pattern]
                    if t not in dist:
                        dist[t] = dist[s] + 1
                        parent[t] = (s, pattern)
                        nxt.append(t)
            frontier = nxt
        return dist, parent

    def justify(self, targets: Iterable[int]) -> Optional[Tuple[List[int], int]]:
        """Shortest input sequence driving reset to any state in ``targets``.

        Returns ``(patterns, reached_state)`` or None when unreachable.
        An empty pattern list means the reset state itself qualifies.
        """
        targets = set(targets)
        if not targets:
            return None
        dist, parent = self.bfs_tree()
        best = None
        for t in targets:
            if t in dist and (best is None or dist[t] < dist[best]):
                best = t
        if best is None:
            return None
        patterns: List[int] = []
        node = best
        while node != self.reset:
            prev, pattern = parent[node]
            patterns.append(pattern)
            node = prev
        patterns.reverse()
        return patterns, best

    def random_walk(self, rng: random.Random, length: int) -> List[int]:
        """A random valid input sequence from reset (for random TPG)."""
        seq: List[int] = []
        state = self.reset
        for _ in range(length):
            choices = sorted(self.edges.get(state, {}))
            if not choices:
                break
            pattern = rng.choice(choices)
            seq.append(pattern)
            state = self.edges[state][pattern]
        return seq

    def run(self, patterns: Iterable[int]) -> List[int]:
        """Replay a pattern sequence; returns the visited stable states
        (excluding reset).  Raises if a pattern is not a valid edge."""
        state = self.reset
        visited = []
        for pattern in patterns:
            nxt = self.successor(state, pattern)
            if nxt is None:
                raise StateGraphError(
                    f"pattern {pattern:0{self.circuit.n_inputs}b} is not valid "
                    f"in state {self.circuit.state_bits(state)}"
                )
            state = nxt
            visited.append(state)
        return visited


def frontier_traverse(
    cssg: Cssg,
    analyse,
    max_input_changes: Optional[int],
    cap_states: int,
) -> Cssg:
    """The construction loop every method shares: breadth-first over
    reachable stable states, trying every input pattern (optionally
    Hamming-limited), with results memoized on the post-R_I state.

    ``analyse(started) -> Optional[successor]`` is the method-specific
    validity analysis — the only thing the methods differ in.  Raises
    :class:`StateGraphError` past ``cap_states`` stable states.
    """
    from repro.obs.trace import get_tracer

    with get_tracer().span("cssg.traverse", circuit=cssg.circuit.name):
        _frontier_loop(cssg, analyse, max_input_changes, cap_states)
    return cssg


def _frontier_loop(cssg, analyse, max_input_changes, cap_states) -> None:
    circuit = cssg.circuit
    stats = cssg.stats
    all_patterns = list(range(1 << circuit.n_inputs))
    memo: Dict[int, Optional[int]] = {}  # post-R_I state -> succ or None
    frontier = [cssg.reset]
    cssg.states.add(cssg.reset)
    while frontier:
        next_frontier: List[int] = []
        for s in frontier:
            cur = circuit.input_pattern(s)
            out_edges: Dict[int, int] = {}
            for pattern in all_patterns:
                if pattern == cur:
                    continue
                if (
                    max_input_changes is not None
                    and hamming(pattern, cur) > max_input_changes
                ):
                    continue
                stats.n_vectors_tried += 1
                started = circuit.apply_input_pattern(s, pattern)
                if started in memo:
                    t = memo[started]
                else:
                    t = analyse(started)
                    memo[started] = t
                if t is None:
                    continue
                stats.n_valid += 1
                out_edges[pattern] = t
                if t not in cssg.states:
                    if len(cssg.states) >= cap_states:
                        raise StateGraphError(
                            f"CSSG exceeded {cap_states} stable states"
                        )
                    cssg.states.add(t)
                    next_frontier.append(t)
            cssg.edges[s] = out_edges
        frontier = next_frontier


#: The CSSG construction methods :func:`build_cssg` accepts;
#: :func:`repro.core.atpg.cssg_for` resolves ``"auto"`` to one of them.
CSSG_METHODS = ("exact", "hybrid", "symbolic", "ternary")


def build_cssg(
    circuit: Circuit,
    k: Optional[int] = None,
    reset: Optional[int] = None,
    max_input_changes: Optional[int] = None,
    method: str = "exact",
    cap_states: int = 100_000,
) -> Cssg:
    """Compute the CSSG_k by forward traversal from the reset state.

    ``method`` selects the per-vector validity analysis:

    * ``"exact"`` — exhaustive interleaving exploration implementing the
      paper's formal TCR_k/CSSG_k definition (§4.2): the settling graph
      must be acyclic with a single stable terminal reached within ``k``
      transitions.  Exponential in the worst case; fine for small
      circuits.
    * ``"ternary"`` — Eichelberger ternary simulation (§5.4): a vector is
      valid iff Algorithms A+B settle every signal to a definite value.
      This is the GMW race model of [6] — polynomial, conservative about
      races, and *more permissive* about transient cycles: a cyclic
      settling graph whose escape is delay-forced still gets a definite
      verdict.  The ``k`` bound is not checked (GMW has no step count).
    * ``"hybrid"`` — the union of the two acceptances: take the exact
      verdict when the settling graph is acyclic; when only a transient
      cycle blocks it, accept a definite ternary outcome.  Both criteria
      are sound for the unbounded gate-delay model, and each covers the
      other's blind spot (exact: interlocked feedback that ternary
      dissolves into Φ; ternary: transient cycles whose escape is
      delay-forced).
    * ``"symbolic"`` — the exact TCR_k semantics computed by BDD image
      iteration (paper §3.1/§4.2) instead of interleaving enumeration;
      see :meth:`repro.sgraph.symbolic.SymbolicTcsg.build_cssg`.

    ``max_input_changes`` restricts how many input pins may switch in
    one test cycle (None = any subset, the paper's default).
    ``cap_states`` bounds the stable-state traversal of every method.
    """
    if method not in CSSG_METHODS:
        raise StateGraphError(
            f"unknown CSSG method {method!r} "
            f"(available: {', '.join(CSSG_METHODS)})"
        )
    if method == "symbolic":
        from repro.sgraph.symbolic import SymbolicTcsg

        return SymbolicTcsg(circuit).build_cssg(
            k=k,
            reset=reset,
            max_input_changes=max_input_changes,
            cap_states=cap_states,
        )
    if reset is None:
        reset = circuit.require_reset()
    if k is None:
        k = circuit.k
    if not circuit.is_stable(reset):
        report = settle_report(circuit, reset)
        if report.valid(k):
            reset = report.unique_stable
        else:
            raise StateGraphError(
                f"reset state {circuit.state_bits(reset)} is unstable and "
                "does not settle confluently; provide a stable .reset"
            )

    cssg = Cssg(circuit=circuit, k=k, reset=reset)
    stats = cssg.stats
    stats.method = method

    def ternary_outcome(started: int) -> Optional[int]:
        from repro.sim import ternary as tsim

        result = tsim.settle(
            circuit, tsim.from_binary(started, circuit.n_signals)
        )
        if not tsim.is_definite(result):
            stats.n_phi += 1
            return None
        return tsim.to_binary(result)

    def analyse(started: int) -> Optional[int]:
        """Unique stable successor of the post-R_I state, or None."""
        if method == "ternary":
            return ternary_outcome(started)
        report = settle_report(circuit, started)
        if report.nonconfluent:
            stats.n_nonconfluent += 1
            return None
        if report.oscillating or report.truncated:
            if method == "hybrid":
                # A transient cycle: a definite ternary verdict proves
                # a delay-forced escape to one stable state.
                return ternary_outcome(started)
            stats.n_oscillating += 1
            return None
        assert report.longest_path is not None
        if report.longest_path > k:
            stats.n_too_slow += 1
            return None
        stats.max_settle_path = max(stats.max_settle_path, report.longest_path)
        return report.unique_stable

    return frontier_traverse(cssg, analyse, max_input_changes, cap_states)
