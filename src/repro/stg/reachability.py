"""Token-game reachability and the specification state graph.

Builds the reachable state graph of an STG.  Each state is a (marking,
code) pair where the code packs signal values in ``stg.signals`` order.
During the BFS we enforce:

* **safeness** — no place ever carries two tokens;
* **consistency** — ``s+`` only fires when ``s`` is 0 and ``s-`` when 1.

Initial signal values come from the ``.initial`` directive or are
inferred: for every signal, the direction of the *first* of its
transitions reached by a BFS over markings fixes the initial value
(a `+` first edge means it starts at 0).  Inference is validated by the
labeled BFS afterwards, so an inconsistent guess cannot go unnoticed.

:func:`check_csc` verifies Complete State Coding — the condition the
paper's benchmarks satisfy by construction (Petrify inserts internal
signals for it).  Synthesis refuses STGs that fail it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.errors import ConsistencyError, CscError, StgError
from repro.stg.petrinet import Marking, Stg, Transition


@dataclass
class StateGraph:
    """Reachable states of an STG under the token game."""

    stg: Stg
    # state id -> (marking, code)
    states: List[Tuple[Marking, int]] = field(default_factory=list)
    index: Dict[Tuple[Marking, int], int] = field(default_factory=dict)
    # edges[i] = list of (transition, successor state id)
    edges: List[List[Tuple[Transition, int]]] = field(default_factory=list)
    initial: int = 0

    @property
    def n_states(self) -> int:
        return len(self.states)

    def code_of(self, state_id: int) -> int:
        return self.states[state_id][1]

    def signal_bit(self, signal: str) -> int:
        return self.stg.signals.index(signal)

    def next_state_value(self, state_id: int, signal: str) -> int:
        """NS(signal) at a state: where the signal is headed.

        1 when the signal is 0 with a rise enabled, or 1 with no fall
        enabled; 0 otherwise.  This is the function the gate for
        ``signal`` must implement (the implied value of [3]).
        """
        bitpos = self.signal_bit(signal)
        value = (self.code_of(state_id) >> bitpos) & 1
        for t, _ in self.edges[state_id]:
            if t.signal == signal:
                return 1 if t.direction > 0 else 0
        return value

    def codes(self) -> Set[int]:
        return {code for _, code in self.states}


def _infer_initial_values(stg: Stg, cap: int) -> Dict[str, int]:
    """BFS over markings alone; first edge direction fixes initial value."""
    values: Dict[str, int] = {}
    seen: Set[Marking] = {stg.initial_marking}
    queue = deque([stg.initial_marking])
    steps = 0
    while queue and len(values) < len(stg.signals) and steps < cap:
        marking = queue.popleft()
        for t in stg.enabled(marking):
            values.setdefault(t.signal, 0 if t.direction > 0 else 1)
            nxt = stg.fire(marking, t)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
            steps += 1
    missing = [s for s in stg.signals if s not in values]
    if missing:
        raise StgError(
            f"cannot infer initial values for {missing} (signals never fire); "
            "add an .initial directive"
        )
    return values


def build_state_graph(stg: Stg, cap: int = 1_000_000) -> StateGraph:
    """Reachability with safeness and consistency checking."""
    if stg.initial_values is not None:
        values = dict(stg.initial_values)
        missing = [s for s in stg.signals if s not in values]
        if missing:
            raise StgError(f".initial missing signals {missing}")
    else:
        values = _infer_initial_values(stg, cap)
    code0 = 0
    for i, sig in enumerate(stg.signals):
        if values[sig]:
            code0 |= 1 << i
    sg = StateGraph(stg=stg)
    start = (stg.initial_marking, code0)
    sg.states.append(start)
    sg.index[start] = 0
    sg.edges.append([])
    queue = deque([0])
    bit_of = {sig: i for i, sig in enumerate(stg.signals)}
    while queue:
        sid = queue.popleft()
        marking, code = sg.states[sid]
        for t in stg.enabled(marking):
            bitpos = bit_of[t.signal]
            value = (code >> bitpos) & 1
            if t.direction > 0 and value == 1:
                raise ConsistencyError(
                    f"{stg.name}: {t} fires with {t.signal}=1 "
                    f"(state code {code:0{len(stg.signals)}b})"
                )
            if t.direction < 0 and value == 0:
                raise ConsistencyError(
                    f"{stg.name}: {t} fires with {t.signal}=0 "
                    f"(state code {code:0{len(stg.signals)}b})"
                )
            nmarking = stg.fire(marking, t)  # raises SafenessError if unsafe
            ncode = code ^ (1 << bitpos)
            key = (nmarking, ncode)
            nid = sg.index.get(key)
            if nid is None:
                if len(sg.states) >= cap:
                    raise StgError(f"{stg.name}: state graph exceeds {cap} states")
                nid = len(sg.states)
                sg.states.append(key)
                sg.index[key] = nid
                sg.edges.append([])
                queue.append(nid)
            sg.edges[sid].append((t, nid))
    return sg


def check_csc(sg: StateGraph) -> List[Tuple[int, int, str]]:
    """Return CSC conflicts as (state_id, state_id, signal) triples.

    Two reachable states conflict when they share a binary code but
    disagree on the next-state value of some non-input signal — then no
    logic function of the signal values can implement that signal.
    """
    conflicts: List[Tuple[int, int, str]] = []
    by_code: Dict[int, List[int]] = {}
    for sid in range(sg.n_states):
        by_code.setdefault(sg.code_of(sid), []).append(sid)
    for code, sids in by_code.items():
        if len(sids) < 2:
            continue
        for signal in sg.stg.non_input_signals:
            values = {sg.next_state_value(sid, signal) for sid in sids}
            if len(values) > 1:
                # Report one representative pair per (code, signal).
                lo = min(s for s in sids if sg.next_state_value(s, signal) == 0)
                hi = min(s for s in sids if sg.next_state_value(s, signal) == 1)
                conflicts.append((lo, hi, signal))
    return conflicts


def require_csc(sg: StateGraph) -> None:
    """Raise :class:`CscError` when the state graph violates CSC."""
    conflicts = check_csc(sg)
    if conflicts:
        nbits = len(sg.stg.signals)
        lines = [
            f"code {sg.code_of(a):0{nbits}b}: NS({sig}) differs "
            f"(states {a} vs {b})"
            for a, b, sig in conflicts[:5]
        ]
        raise CscError(
            f"{sg.stg.name}: {len(conflicts)} CSC conflict(s); e.g. "
            + "; ".join(lines)
        )
