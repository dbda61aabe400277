"""The arena walk kernel: the package's one Algorithm A/B settle.

Every ternary settle runs here: random TPG and test-set walks, the
batch state-passing methods of :class:`~repro.sim.batch.FaultBatch`,
the scalar API of :mod:`repro.sim.ternary`, and the three-phase and
classifier faulty machines (each one a lane of the kernel compiled for
its fault list).  One kernel is compiled per ``(circuit, fault
overlay)`` pair from the overlay's mask tables; the
:class:`~repro.sim.engine.SimEngine` owning those tables compiles it on
first use and keeps it.

The kernel is one generated *generator* whose locals hold every
signal's ``(l, h)`` words; each request is a single ``send`` (see
:func:`_codegen_walk` for the protocol), so state never leaves the
generator frame between test cycles of a walk.  Settling is
Eichelberger's Algorithm A then Algorithm B, driven by an int bitmask
of changed signals: a pass re-evaluates only gates whose baked-in exam
mask intersects the changes (no queue, no per-event allocation, no
per-gate function calls).  Both algorithms run through one sweep body
in which every gate is emitted once; a phase flag picks the update
(Algorithm A: lub into the old value; Algorithm B: plain assignment).
Both fixpoints are unique under any fair order, so the kernel is
bit-identical to the seed's sweeps kept in :mod:`repro.sim.legacy`,
which ``tests/test_sim_cross.py`` and ``tests/test_arena.py`` check.

CPython bignum bitwise ops are already C-speed word-parallel, so one
bignum word per signal carries the whole fault universe of every bundled
benchmark.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.circuit.expr import OP_AND, OP_NOT, OP_OR, OP_VAR, OP_XOR, Program
from repro.circuit.netlist import Circuit
from repro.obs import metrics as _obs

if TYPE_CHECKING:
    from repro.sim.engine import SimEngine

__all__ = ["ArenaWalk"]

_WORD = 64


def _emit_eval(
    lines: List[str], indent: str, engine: SimEngine, pos: int, gate_at
) -> Tuple[str, str]:
    """Append the straight-line evaluation of gate ``pos`` under the
    engine's fault overlay to ``lines``; returns the final ``(l, h)``
    result expressions.

    This is the single source of truth for the ternary operator and
    overlay-mask formulas.  Operands are the kernel's locals ``l{sig}`` /
    ``h{sig}``.  The overlay's mask tables enter as follows, each a
    per-machine mask over the word's bits:

    * ``pin_force[gate][site] = (f0, f1)`` bakes per-pin stuck-at masks
      into the operand reads;
    * ``bridges[gate][partner] = (and_mask, or_mask)``: the partner's
      (clean) function is evaluated inline and the result blended in —
      the ternary AND for machines in ``and_mask`` (wired-AND bridging),
      the OR for ``or_mask`` machines;
    * ``self_and`` / ``self_or`` blend the gate's **own current value**
      into the result — the self-sticky encoding of slow-to-rise /
      slow-to-fall transition faults;
    * ``out_force`` forces the result words (output stuck-at).

    Every blend is the identity outside its mask, and each machine bit
    carries at most one fault, so the application order is immaterial.
    Temporaries are introduced per operator, so the generated code is
    linear in the program length (shared subterms are never
    re-expanded).
    """
    gi = engine.cc.gate_index[pos]
    ones = engine.ones
    tag = f"g{pos}_"
    counter = [0]

    def fresh() -> Tuple[str, str]:
        a, b = f"{tag}t{counter[0]}", f"{tag}u{counter[0]}"
        counter[0] += 1
        return a, b

    def emit(prog: Program, forces) -> Tuple[str, str]:
        """Append the evaluation of ``prog`` to ``lines``; returns the
        (l, h) result expressions."""
        stack: List[Tuple[str, str]] = []
        for op, arg in prog:
            if op == OP_VAR:
                force = forces.get(arg) if forces else None
                rl, rh = f"l{arg}", f"h{arg}"
                if force is None:
                    stack.append((rl, rh))
                else:
                    f0, f1 = force
                    stack.append(
                        (
                            f"(({rl}|{f0})&{ones & ~f1})",
                            f"(({rh}|{f1})&{ones & ~f0})",
                        )
                    )
            elif op == OP_NOT:
                l, h = stack.pop()
                stack.append((h, l))
            elif op == OP_AND:
                l2, h2 = stack.pop()
                l1, h1 = stack[-1]
                a, b = fresh()
                lines.append(f"{indent}{a} = {l1}|{l2}; {b} = {h1}&{h2}")
                stack[-1] = (a, b)
            elif op == OP_OR:
                l2, h2 = stack.pop()
                l1, h1 = stack[-1]
                a, b = fresh()
                lines.append(f"{indent}{a} = {l1}&{l2}; {b} = {h1}|{h2}")
                stack[-1] = (a, b)
            elif op == OP_XOR:
                l2, h2 = stack.pop()
                l1, h1 = stack[-1]
                a, b = fresh()
                lines.append(
                    f"{indent}{a} = ({l1}&{l2})|({h1}&{h2}); "
                    f"{b} = ({l1}&{h2})|({h1}&{l2})"
                )
                stack[-1] = (a, b)
            else:  # OP_CONST
                stack.append(
                    (str(0 if arg else ones), str(ones if arg else 0))
                )
        return stack.pop()

    l, h = emit(engine.circuit.gates[pos].program, engine.pin_force.get(gi))
    for partner, (and_mask, or_mask) in sorted(engine.bridges.get(gi, {}).items()):
        # Masked blend of the partner's driven value: per machine,
        # ternary AND for and_mask bits, ternary OR for or_mask bits,
        # identity elsewhere (the masks never share a bit).
        lb, hb = emit(gate_at[partner].program, None)
        a, b = fresh()
        lines.append(
            f"{indent}{a} = (({l})|({lb}&{and_mask}))"
            f"&(({lb})|{ones & ~or_mask}); "
            f"{b} = (({h})&(({hb})|{ones & ~and_mask}))"
            f"|(({hb})&{or_mask})"
        )
        l, h = a, b
    self_and = engine.self_and.get(gi, 0)
    self_or = engine.self_or.get(gi, 0)
    if self_and or self_or:
        sl, sh = f"l{gi}", f"h{gi}"
        a, b = fresh()
        lines.append(
            f"{indent}{a} = (({l})|({sl}&{self_and}))"
            f"&({sl}|{ones & ~self_or}); "
            f"{b} = (({h})&({sh}|{ones & ~self_and}))"
            f"|({sh}&{self_or})"
        )
        l, h = a, b
    out_force = engine.out_force.get(gi)
    if out_force is not None:
        f0, f1 = out_force
        a, b = fresh()
        lines.append(
            f"{indent}{a} = ({l}|{f0})&{ones & ~f1}; "
            f"{b} = ({h}|{f1})&{ones & ~f0}"
        )
        l, h = a, b
    return l, h


def _exam_mask(engine: SimEngine, pos: int, gate_at) -> int:
    """Signal bitmask that must intersect the changed-set for gate
    ``pos`` to need re-evaluation: its support, any bridge partner's
    support, and its own output (covers self blends and seeding)."""
    gi = engine.cc.gate_index[pos]
    gate = engine.circuit.gates[pos]
    sigs = set(gate.support)
    sigs.add(gi)
    for partner in engine.bridges.get(gi, {}):
        sigs.update(gate_at[partner].support)
    m = 0
    for s in sigs:
        m |= 1 << s
    return m


def _emit_observe(ap, indent: str, circuit: Circuit, good: str, dest: str):
    """Detection mask accumulation: definite output difference vs the
    good state in ``good`` (same formula as ``FaultBatch.observe``)."""
    ap(f"{indent}{dest} = 0")
    for out in circuit.outputs:
        ap(f"{indent}if ({good} >> {out}) & 1:")
        ap(f"{indent}    {dest} |= l{out} & ~h{out}")
        ap(f"{indent}else:")
        ap(f"{indent}    {dest} |= h{out} & ~l{out}")


def _codegen_walk(engine: SimEngine) -> str:
    """Source of the arena walk generator for one engine overlay.

    Protocol (after priming with ``next``): ``send((pattern, good))``
    with ``pattern >= 0`` runs one test cycle — drive inputs, Algorithm
    A then B over the changed-signal bitmask, observe — and yields the
    detection word.  Control ops use negative first elements:
    ``(-1, good)`` observes without stepping; ``(-2, changed)`` settles
    the current state, re-examining the gates whose exam mask meets
    the ``changed`` signal bitmask (every signal for an arbitrary
    state, only the rewritten ones for a state that had settled under
    this overlay); ``(-3, 0)`` yields a snapshot ``((l...), (h...))``
    of every signal word.
    """
    cc = engine.cc
    circuit = engine.circuit
    ones = engine.ones
    n_signals = cc.n_signals
    gate_at = {g.index: g for g in circuit.gates}
    cap = 2 * n_signals * max(1, engine.width) + 4
    lines: List[str] = ["def walk(low, high):"]
    ap = lines.append
    for i in range(n_signals):
        ap(f"    l{i} = low[{i}]; h{i} = high[{i}]")
    snapshot = (
        "(("
        + ", ".join(f"l{i}" for i in range(n_signals))
        + ",), ("
        + ", ".join(f"h{i}" for i in range(n_signals))
        + ",))"
    )
    ap("    r = None")
    ap("    while True:")
    ap("        a, b = yield r")
    ap("        if a >= 0:")
    ap("            ac = 0")
    for i in range(cc.n_inputs):
        ap(f"            if (a >> {i}) & 1:")
        ap(f"                if l{i} or h{i} != {ones}:")
        ap(f"                    l{i} = 0; h{i} = {ones}; ac |= {1 << i}")
        ap("            else:")
        ap(f"                if l{i} != {ones} or h{i}:")
        ap(f"                    l{i} = {ones}; h{i} = 0; ac |= {1 << i}")
    ap("        elif a == -1:")
    _emit_observe(ap, "            ", circuit, "b", "det")
    ap("            r = det")
    ap("            continue")
    ap("        elif a == -2:")
    ap("            ac = b")
    ap("        else:")
    ap(f"            r = {snapshot}")
    ap("            continue")
    # Algorithm A (pa = 1): value <- lub(value, eval), to the least
    # fixpoint; then Algorithm B (pa = 0): value <- eval, monotone
    # decreasing to the greatest fixpoint below it.  Each pass
    # re-evaluates exactly the gates whose exam mask meets the signals
    # changed so far (ac) or in this pass (nc); aev remembers every gate
    # A evaluated so B can seed from it (a gate A never touched started
    # settled and cannot move until a fan-in does).
    ap("        aev = 0")
    ap("        pa = 1")
    ap("        rounds = 0")
    ap("        while ac or pa:")
    ap("            if not ac:")
    ap("                pa = 0; ac = aev; rounds = 0")
    ap("                continue")
    ap("            nc = 0")
    ap("            rounds += 1")
    ap(f"            if rounds > {cap}:")
    ap("                if pa:")
    ap(
        "                    raise SimulationError("
        "'Algorithm A failed to converge (internal bug)')"
    )
    ap(
        "                raise SimulationError("
        "'Algorithm B failed to converge (internal bug)')"
    )
    for pos in cc.order:
        gi = cc.gate_index[pos]
        exam = _exam_mask(engine, pos, gate_at)
        ap(f"            if (ac | nc) & {exam}:")
        l, h = _emit_eval(lines, "                ", engine, pos, gate_at)
        ap("                if pa:")
        ap(f"                    aev |= {1 << gi}")
        ap(f"                    nl = ({l}) | l{gi}; nh = ({h}) | h{gi}")
        ap("                else:")
        ap(f"                    nl = {l}; nh = {h}")
        ap(f"                if nl != l{gi} or nh != h{gi}:")
        ap(f"                    l{gi} = nl; h{gi} = nh; nc |= {1 << gi}")
    ap("            ac = nc")
    ap("        if a < 0:")
    ap("            r = None")
    ap("            continue")
    _emit_observe(ap, "        ", circuit, "b", "det")
    ap("        r = det")
    return "\n".join(lines)


class _WalkMeter:
    """Throughput accounting for one walk, when metrics are enabled.

    ``units`` is lane-words × gates — the amount of word-parallel work
    one test cycle performs — so the published rate is the packed-sim
    ``words·gates/sec`` figure of merit.  Registry updates are batched
    (one flush per :data:`_BATCH` steps): the per-step cost is two
    ``perf_counter`` calls and two float adds."""

    __slots__ = ("units", "_steps", "_seconds", "_ctr_steps",
                 "_ctr_seconds", "_rate")

    _BATCH = 64

    def __init__(self, engine: SimEngine):
        reg = _obs.get_registry()
        words = (max(1, engine.width) + _WORD - 1) // _WORD
        self.units = words * max(1, len(engine.circuit.gates))
        self._steps = 0
        self._seconds = 0.0
        self._ctr_steps = reg.counter(
            "repro_sim_walk_steps_total", "Arena walk test cycles executed."
        )
        self._ctr_seconds = reg.counter(
            "repro_sim_walk_seconds_total",
            "Wall-clock seconds inside arena walk steps.",
        )
        self._rate = reg.gauge(
            "repro_sim_words_gates_per_sec",
            "Arena walk throughput: lane words x gates per second "
            "(last flushed batch).",
        )

    def record(self, seconds: float) -> None:
        self._steps += 1
        self._seconds += seconds
        if self._steps >= self._BATCH:
            self.flush()

    def flush(self) -> None:
        if not self._steps:
            return
        self._ctr_steps.inc(self._steps)
        self._ctr_seconds.inc(self._seconds)
        if self._seconds > 0.0:
            self._rate.set(self._steps * self.units / self._seconds)
        self._steps = 0
        self._seconds = 0.0


class ArenaWalk:
    """One in-flight walk over a packed fault batch.

    Thin handle over the kernel's generator: :meth:`step` is one test
    cycle returning the detection mask, :meth:`observe` re-observes the
    current state (observation 0 after reset), :meth:`state` snapshots
    the per-signal words as a ``FaultBatch``-compatible state tuple.
    With metrics disabled (the default) stepping pays a single ``is
    None`` check on top of the generator send.
    """

    __slots__ = ("_gen", "_meter")

    def __init__(self, gen, meter: Optional[_WalkMeter] = None):
        self._gen = gen
        self._meter = meter

    def step(self, pattern: int, good_state: int) -> int:
        """Drive ``pattern``, settle, observe against ``good_state``."""
        meter = self._meter
        if meter is None:
            return self._gen.send((pattern, good_state))
        t0 = perf_counter()
        det = self._gen.send((pattern, good_state))
        meter.record(perf_counter() - t0)
        return det

    def observe(self, good_state: int) -> int:
        """Detection mask of the current (already settled) state."""
        return self._gen.send((-1, good_state))

    def state(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Snapshot ``(low words, high words)`` of every signal."""
        return self._gen.send((-3, 0))
