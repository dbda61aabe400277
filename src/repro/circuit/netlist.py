"""The gate-level circuit container and packed-state operations.

A :class:`Circuit` follows the paper's model (§3):

* an interconnection of gates, each with an instantaneous boolean function
  and an unbounded positive inertial delay attached to its output;
* primary inputs are *wires* driven by the environment; following the
  paper, real designs buffer every primary input through an identity gate
  so that input transitions also race through delays (figure 1 shows the
  ``A -> a`` buffers).  Buffers are ordinary gates here — the synthesis
  front end inserts them automatically, hand-written netlists write them
  explicitly.

A circuit **state** packs the values of all signals into one int: input
wires occupy bits ``0..m-1`` in declaration order, gate outputs the bits
after them.  A gate is *excited* when its function disagrees with its
output; a state is *stable* when no gate is excited (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro._bits import bit, bits_to_str, mask, set_bit
from repro.circuit.expr import (
    Expr,
    Program,
    compile_expr,
    eval_binary,
    parse_expr,
    program_vars,
)
from repro.circuit.gatelib import build_gate_expr
from repro.errors import NetlistError


@dataclass(frozen=True)
class Signal:
    """A named wire: either a primary input or a gate output."""

    name: str
    index: int
    is_input: bool
    is_output: bool


@dataclass(frozen=True)
class Gate:
    """A gate: the function driving signal ``index``.

    ``support`` lists the distinct source-signal indices the function
    reads; each (gate, support signal) pair is an input *pin* for the
    input stuck-at fault model.
    """

    name: str
    index: int
    expr: Expr
    program: Program
    support: Tuple[int, ...]
    gtype: Optional[str] = None


class Circuit:
    """A finalized asynchronous circuit.

    Build one incrementally::

        c = Circuit("demo")
        c.add_input("A")
        c.add_gate("a", gtype="BUF", inputs=["A"])
        c.add_gate("y", expr="a & ~y")
        c.mark_output("y")
        c.set_reset({"A": 0, "a": 0, "y": 0})
        c.finalize()

    or use :func:`repro.circuit.parser.parse_netlist`.  After
    :meth:`finalize` the circuit is immutable.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._input_names: List[str] = []
        self._gate_defs: List[Tuple[str, Expr, Optional[str]]] = []
        self._output_names: List[str] = []
        self._reset_values: Optional[Dict[str, int]] = None
        self._k: Optional[int] = None
        self._finalized = False
        # Populated by finalize():
        self.signals: Tuple[Signal, ...] = ()
        self.gates: Tuple[Gate, ...] = ()
        self.outputs: Tuple[int, ...] = ()
        self.reset_state: Optional[int] = None

    # -- construction -------------------------------------------------

    def _check_mutable(self):
        if self._finalized:
            raise NetlistError("circuit is finalized and immutable")

    def _check_fresh_name(self, name: str):
        if not name or any(ch.isspace() for ch in name):
            raise NetlistError(f"invalid signal name {name!r}")
        if name in self._input_names or any(g[0] == name for g in self._gate_defs):
            raise NetlistError(f"signal {name!r} defined twice")

    def add_input(self, name: str) -> None:
        """Declare a primary input wire."""
        self._check_mutable()
        self._check_fresh_name(name)
        self._input_names.append(name)

    def add_gate(
        self,
        name: str,
        expr: Optional[Expr] = None,
        gtype: Optional[str] = None,
        inputs: Optional[Sequence[str]] = None,
    ) -> None:
        """Add a gate driving signal ``name``.

        Provide either ``expr`` (an :class:`Expr` or an expression string)
        or ``gtype`` plus ``inputs`` (a library gate).
        """
        self._check_mutable()
        self._check_fresh_name(name)
        if expr is not None and gtype is not None:
            raise NetlistError("give either expr or gtype, not both")
        if expr is None:
            if gtype is None:
                raise NetlistError("gate needs an expr or a gtype")
            expr = build_gate_expr(gtype, name, list(inputs or []))
        elif isinstance(expr, str):
            expr = parse_expr(expr)
        self._gate_defs.append((name, expr, gtype))

    def mark_output(self, name: str) -> None:
        """Mark a signal as a primary (observable) output."""
        self._check_mutable()
        if name not in self._output_names:
            self._output_names.append(name)

    def set_reset(self, values: Dict[str, int]) -> None:
        """Give the reset state as a {signal name: 0/1} map (all signals)."""
        self._check_mutable()
        self._reset_values = dict(values)

    def set_k(self, k: int) -> None:
        """Set the default test-cycle transition bound (paper §4.1)."""
        self._check_mutable()
        if k < 1:
            raise NetlistError("k must be positive")
        self._k = k

    def finalize(self) -> "Circuit":
        """Resolve names, compile gate programs, validate. Returns self."""
        self._check_mutable()
        if not self._gate_defs:
            raise NetlistError("circuit has no gates")
        names = self._input_names + [g[0] for g in self._gate_defs]
        index_of = {n: i for i, n in enumerate(names)}
        signals = []
        gates = []
        out_set = set(self._output_names)
        for i, n in enumerate(self._input_names):
            signals.append(Signal(n, i, True, n in out_set))
        m = len(self._input_names)
        for j, (n, expr, gtype) in enumerate(self._gate_defs):
            idx = m + j
            try:
                program = compile_expr(expr, index_of)
            except KeyError as exc:
                raise NetlistError(
                    f"gate {n!r} references undefined signal {exc.args[0]!r}",
                    ("gate", n),
                ) from None
            gates.append(Gate(n, idx, expr, program, program_vars(program), gtype))
            signals.append(Signal(n, idx, False, n in out_set))
        for n in self._output_names:
            if n not in index_of:
                raise NetlistError(
                    f"output {n!r} is not a defined signal", ("output", n)
                )
        self.signals = tuple(signals)
        self.gates = tuple(gates)
        self.outputs = tuple(index_of[n] for n in self._output_names)
        self._index_of = index_of
        if self._reset_values is not None:
            missing = [n for n in names if n not in self._reset_values]
            if missing:
                raise NetlistError(
                    f"reset state missing signals: {missing}", ("reset", "")
                )
            unknown = [n for n in self._reset_values if n not in index_of]
            if unknown:
                raise NetlistError(
                    f"reset state has unknown signals: {unknown}", ("reset", "")
                )
            state = 0
            for n, v in self._reset_values.items():
                state = set_bit(state, index_of[n], int(v))
            self.reset_state = state
        self._finalized = True
        return self

    # -- derived structure (cached; consumed by the compiled engine) ----

    def fanouts(self) -> Tuple[Tuple[int, ...], ...]:
        """For every signal index, the positions (into ``self.gates``) of
        the gates whose support reads that signal.  Computed once and
        cached."""
        cached = getattr(self, "_fanouts", None)
        if cached is None:
            lists: List[List[int]] = [[] for _ in range(self.n_signals)]
            for pos, gate in enumerate(self.gates):
                for src in gate.support:
                    lists[src].append(pos)
            cached = tuple(tuple(l) for l in lists)
            self._fanouts = cached
        return cached

    def levels(self) -> Tuple[int, ...]:
        """Gate positions in a feedback-tolerant topological order.

        Gates whose support is fully resolved (inputs or already-levelled
        gates) come first, layer by layer; gates stuck in feedback cycles
        are appended in declaration order.  The engine uses this as its
        initial evaluation schedule so feed-forward logic settles in one
        pass."""
        cached = getattr(self, "_levels", None)
        if cached is None:
            resolved = [False] * self.n_signals
            for i in range(self.n_inputs):
                resolved[i] = True
            order: List[int] = []
            remaining = list(range(len(self.gates)))
            while remaining:
                layer = [
                    pos
                    for pos in remaining
                    if all(
                        resolved[src] or src == self.gates[pos].index
                        for src in self.gates[pos].support
                    )
                ]
                if not layer:
                    break  # pure feedback knot: fall through to append
                for pos in layer:
                    order.append(pos)
                    resolved[self.gates[pos].index] = True
                remaining = [pos for pos in remaining if not resolved[self.gates[pos].index]]
            order.extend(remaining)
            cached = tuple(order)
            self._levels = cached
        return cached

    # -- shape queries -------------------------------------------------

    @property
    def n_inputs(self) -> int:
        return len(self._input_names)

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    @property
    def n_signals(self) -> int:
        return len(self.signals)

    @property
    def input_names(self) -> Tuple[str, ...]:
        return tuple(self._input_names)

    @property
    def output_names(self) -> Tuple[str, ...]:
        return tuple(self._output_names)

    @property
    def k(self) -> int:
        """Test-cycle transition bound: explicit, or the §4.1-style
        estimate ``4 * n_signals + 8`` (a loose |sigma| upper bound)."""
        if self._k is not None:
            return self._k
        return 4 * self.n_signals + 8

    def index(self, name: str) -> int:
        """Signal index for ``name``."""
        try:
            return self._index_of[name]
        except KeyError:
            raise NetlistError(f"unknown signal {name!r}") from None

    def gate_at(self, index: int) -> Optional[Gate]:
        """The gate driving signal ``index``, or None for primary-input
        wires.  O(1): gates occupy indices ``n_inputs..n_signals-1`` in
        declaration order."""
        pos = index - self.n_inputs
        if 0 <= pos < len(self.gates):
            return self.gates[pos]
        return None

    def signal_name(self, i: int) -> str:
        return self.signals[i].name

    # -- state operations ----------------------------------------------

    def value(self, state: int, name: str) -> int:
        """Value of the named signal in ``state``."""
        return bit(state, self.index(name))

    def input_pattern(self, state: int) -> int:
        """The lambda_P labeling: the low m bits of the state."""
        return state & mask(self.n_inputs)

    def apply_input_pattern(self, state: int, pattern: int) -> int:
        """Replace the input bits of ``state`` by ``pattern`` (an R_I step:
        several inputs may change at once, no gate has switched yet)."""
        return (state & ~mask(self.n_inputs)) | (pattern & mask(self.n_inputs))

    def gate_eval(self, gate: Gate, state: int) -> int:
        """Instantaneous function value of ``gate`` in ``state``."""
        return eval_binary(gate.program, state)

    def excited_gates(self, state: int) -> List[Gate]:
        """All excited gates of ``state`` (the nondeterministic choices of
        the next-state function delta, §3.1)."""
        return [g for g in self.gates
                if eval_binary(g.program, state) != bit(state, g.index)]

    def is_stable(self, state: int) -> bool:
        return not any(
            eval_binary(g.program, state) != bit(state, g.index) for g in self.gates
        )

    def switch(self, state: int, gate: Gate) -> int:
        """delta(s, g): flip the gate's output (gate must be excited)."""
        return state ^ (1 << gate.index)

    def output_values(self, state: int) -> Tuple[int, ...]:
        """Values of the primary outputs in ``state``, in output order."""
        return tuple(bit(state, o) for o in self.outputs)

    def state_of(self, values: Dict[str, int]) -> int:
        """Pack a {name: value} map (must cover all signals) into a state."""
        missing = [s.name for s in self.signals if s.name not in values]
        if missing:
            raise NetlistError(f"state map missing signals: {missing}")
        state = 0
        for n, v in values.items():
            state = set_bit(state, self.index(n), int(v))
        return state

    def format_state(self, state: int) -> str:
        """Human-readable state like ``A=0 B=1 | a=0 b=1 c=0``."""
        ins = " ".join(
            f"{s.name}={bit(state, s.index)}" for s in self.signals if s.is_input
        )
        outs = " ".join(
            f"{s.name}={bit(state, s.index)}" for s in self.signals if not s.is_input
        )
        return f"{ins} | {outs}" if ins else outs

    def state_bits(self, state: int) -> str:
        """The paper's compact convention: signal-ordered bit string."""
        return bits_to_str(state, self.n_signals)

    def enumerate_stable_states(self, limit: int = 1 << 22) -> List[int]:
        """Brute-force all stable states (testing aid; small circuits only)."""
        n = self.n_signals
        if (1 << n) > limit:
            raise NetlistError(f"too many states to enumerate: 2^{n}")
        return [s for s in range(1 << n) if self.is_stable(s)]

    def require_reset(self) -> int:
        """Return the reset state or raise if the netlist did not set one."""
        if self.reset_state is None:
            raise NetlistError(f"circuit {self.name!r} has no reset state")
        return self.reset_state

    def __repr__(self):
        return (
            f"Circuit({self.name!r}, inputs={self.n_inputs}, "
            f"gates={self.n_gates}, outputs={len(self.outputs)})"
        )
