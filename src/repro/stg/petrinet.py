"""STGs as labeled safe Petri nets.

An STG is a Petri net whose transitions are labeled with signal edges
(``a+`` / ``a-``).  We keep the net explicit: named places connect
transitions; arcs written directly between two transitions in a ``.g``
file get an *implicit* place named ``<t,t'>``, following astg convention.

Only safe (1-bounded) nets are supported — firing into a marked place
raises :class:`~repro.errors.SafenessError` during reachability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import SafenessError, StgError

Marking = FrozenSet[int]


@dataclass(frozen=True)
class Transition:
    """A signal edge occurrence: ``a+``, ``b-``, possibly ``a+/2``."""

    label: str  # full label including instance suffix
    signal: str
    direction: int  # +1 for rise, -1 for fall
    index: int

    def __str__(self):
        return self.label


def parse_transition_label(label: str) -> Tuple[str, int]:
    """Split ``a+/2`` into ("a", +1).  Raises StgError on bad labels."""
    base = label.split("/", 1)[0]
    if base.endswith("+"):
        return base[:-1], +1
    if base.endswith("-"):
        return base[:-1], -1
    raise StgError(f"transition label {label!r} must end in + or - (before /n)")


class Stg:
    """A finalized STG.  Build with :class:`StgBuilder` or the parser."""

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        internal: Sequence[str],
        transitions: Sequence[Transition],
        place_names: Sequence[str],
        t_in_places: Sequence[FrozenSet[int]],
        t_out_places: Sequence[FrozenSet[int]],
        initial_marking: Marking,
        initial_values: Optional[Dict[str, int]] = None,
    ):
        self.name = name
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.internal = tuple(internal)
        self.transitions = tuple(transitions)
        self.place_names = tuple(place_names)
        self.t_in_places = tuple(t_in_places)
        self.t_out_places = tuple(t_out_places)
        self.initial_marking = initial_marking
        self.initial_values = dict(initial_values) if initial_values else None
        self._validate()

    # -- structure -------------------------------------------------------

    @property
    def signals(self) -> Tuple[str, ...]:
        """All signals: inputs, then outputs, then internal.  This order
        defines bit positions of state-graph codes."""
        return self.inputs + self.outputs + self.internal

    @property
    def non_input_signals(self) -> Tuple[str, ...]:
        return self.outputs + self.internal

    def is_input(self, signal: str) -> bool:
        return signal in self.inputs

    @property
    def n_places(self) -> int:
        return len(self.place_names)

    def _validate(self) -> None:
        sigs = set(self.signals)
        if len(sigs) != len(self.signals):
            raise StgError(f"duplicate signal declarations in {self.name}")
        for t in self.transitions:
            if t.signal not in sigs:
                raise StgError(
                    f"transition {t} on undeclared signal {t.signal!r}",
                    ("transition", t.label),
                )
            if not self.t_in_places[t.index]:
                raise StgError(
                    f"transition {t} has no input places (always enabled)",
                    ("transition", t.label),
                )
        used = set()
        for s in self.t_in_places:
            used |= s
        for s in self.t_out_places:
            used |= s
        for p in self.initial_marking:
            used.add(p)
        if used != set(range(self.n_places)):
            orphan = set(range(self.n_places)) - used
            names = [self.place_names[p] for p in orphan]
            raise StgError(f"disconnected places in {self.name}: {names}")

    # -- token game --------------------------------------------------------

    def enabled(self, marking: Marking) -> List[Transition]:
        """Transitions whose every input place is marked."""
        return [
            t
            for t in self.transitions
            if self.t_in_places[t.index] <= marking
        ]

    def fire(self, marking: Marking, t: Transition) -> Marking:
        """Fire ``t``; raises SafenessError if a token lands on a marked
        place (the net would not be 1-bounded)."""
        pre = self.t_in_places[t.index]
        post = self.t_out_places[t.index]
        if not pre <= marking:
            raise StgError(f"transition {t} is not enabled")
        after_remove = marking - pre
        clash = after_remove & post
        if clash:
            names = [self.place_names[p] for p in clash]
            raise SafenessError(
                f"firing {t} puts a second token on place(s) {names}"
            )
        return after_remove | post


class StgBuilder:
    """Incremental STG construction used by the parser and by tests."""

    def __init__(self, name: str = "stg"):
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.internal: List[str] = []
        self._transitions: Dict[str, int] = {}
        self._t_list: List[Transition] = []
        self._places: Dict[str, int] = {}
        self._t_in: List[set] = []
        self._t_out: List[set] = []
        self._p_declared: List[str] = []
        self.initial_marking_tokens: List[str] = []
        self.initial_values: Optional[Dict[str, int]] = None

    def add_signal(self, name: str, kind: str) -> None:
        if not name or not all(c.isalnum() or c == "_" for c in name):
            raise StgError(f"invalid signal name {name!r}")
        target = {"input": self.inputs, "output": self.outputs,
                  "internal": self.internal}.get(kind)
        if target is None:
            raise StgError(f"unknown signal kind {kind!r}")
        if name in self.inputs or name in self.outputs or name in self.internal:
            raise StgError(f"duplicate signal declaration {name!r}")
        target.append(name)

    def _transition(self, label: str) -> int:
        idx = self._transitions.get(label)
        if idx is None:
            signal, direction = parse_transition_label(label)
            idx = len(self._t_list)
            self._transitions[label] = idx
            self._t_list.append(Transition(label, signal, direction, idx))
            self._t_in.append(set())
            self._t_out.append(set())
        return idx

    def _place(self, name: str) -> int:
        idx = self._places.get(name)
        if idx is None:
            idx = len(self._p_declared)
            self._places[name] = idx
            self._p_declared.append(name)
        return idx

    def is_transition_token(self, token: str) -> bool:
        """A ``.graph`` token is a transition iff its base ends in +/-."""
        base = token.split("/", 1)[0]
        return base.endswith("+") or base.endswith("-")

    def add_arc(self, src: str, dst: str) -> None:
        """Arc between two ``.graph`` tokens; transition->transition arcs
        get an implicit place named ``<src,dst>``."""
        s_trans = self.is_transition_token(src)
        d_trans = self.is_transition_token(dst)
        if s_trans and d_trans:
            p = self._place(f"<{src},{dst}>")
            self._t_out[self._transition(src)].add(p)
            self._t_in[self._transition(dst)].add(p)
        elif s_trans and not d_trans:
            self._t_out[self._transition(src)].add(self._place(dst))
        elif not s_trans and d_trans:
            self._t_in[self._transition(dst)].add(self._place(src))
        else:
            raise StgError(f"arc {src} -> {dst} connects two places")

    def set_marking(self, tokens: Sequence[str]) -> None:
        self.initial_marking_tokens = list(tokens)

    def set_initial_values(self, values: Dict[str, int]) -> None:
        self.initial_values = dict(values)

    def build(self) -> Stg:
        marking = set()
        for token in self.initial_marking_tokens:
            if token not in self._places:
                raise StgError(
                    f"marking references unknown place {token!r}", ("marking", "")
                )
            marking.add(self._places[token])
        return Stg(
            name=self.name,
            inputs=self.inputs,
            outputs=self.outputs,
            internal=self.internal,
            transitions=self._t_list,
            place_names=self._p_declared,
            t_in_places=[frozenset(s) for s in self._t_in],
            t_out_places=[frozenset(s) for s in self._t_out],
            initial_marking=frozenset(marking),
            initial_values=self.initial_values,
        )
