"""The arena walk kernel: the fast path for packed fault-simulation walks.

The engine in :mod:`repro.sim.engine` dispatches one compiled function
per gate through a worklist, with batch state living in per-signal lists
of Python-int words.  That shape is ideal for *sparse* re-settles but
pays per-event interpreter overhead on the hot walk loops (random TPG,
test-set audit, flow fault grading), where every cycle is: drive a
handful of inputs, settle, observe.  This module compiles one walk
kernel per ``(circuit, fault overlay)`` pair on top of the engine's mask
tables and the same operator emitter (:func:`~repro.sim.engine._emit_eval`
— so results are bit-identical by construction).

The kernel (:class:`ArenaKernel` / :class:`ArenaWalk`) is one generated
*generator* whose locals hold every signal's ``(l, h)`` words for the
whole walk; each cycle is a single ``send`` carrying ``(pattern,
good_state)`` and returning the detection mask.  Settling is the same
Algorithm A/B chaotic iteration, driven by an int bitmask of changed
signals: a pass re-evaluates only gates whose baked-in support mask
intersects the changes (the event-driven worklist idea, without a deque
or any per-event allocation).  Both algorithms run through one sweep
body in which every gate is emitted once; a phase flag picks the update
(Algorithm A: lub into the old value; Algorithm B: plain assignment).
Both fixpoints are unique under any fair order, so the kernel is
bit-identical to the engine and to the seed sweeps in
:mod:`repro.sim.legacy`.  State never leaves the generator frame between
cycles — no tuple packing, no list copies, no per-gate function calls.

CPython bignum bitwise ops are already C-speed word-parallel, so one
bignum word per signal carries the whole fault universe of every bundled
benchmark.  ``tests/test_arena.py`` checks the walk against the
worklist path of :class:`~repro.sim.batch.FaultBatch`.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.errors import SimulationError
from repro.obs import metrics as _obs
from repro.sim import engine as _engine
from repro.sim.engine import SimEngine, _emit_eval, engine_for

__all__ = ["ArenaKernel", "ArenaWalk", "arena_for"]

_WORD = 64


def _overlay_kwargs(engine: SimEngine, pos: int, gate_at) -> dict:
    """The :func:`_emit_eval` overlay arguments for gate ``pos``."""
    gi = engine.cc.gate_index[pos]
    return dict(
        pin_force=engine.pin_force.get(gi),
        out_force=engine.out_force.get(gi),
        self_and=engine.self_and.get(gi, 0),
        self_or=engine.self_or.get(gi, 0),
        bridges=[
            (gate_at[partner].program, ma, mo)
            for partner, (ma, mo) in sorted(engine.bridges.get(gi, {}).items())
        ],
    )


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
    ``(-1, good)`` observes without stepping, ``(-2, 0)`` fully settles
    the current state (used once at walk start), ``(-3, 0)`` yields a
    snapshot ``((l...), (h...))`` of every signal word.
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
    ap(f"            ac = {(1 << n_signals) - 1}")
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
        l, h = _emit_eval(
            lines,
            "                ",
            f"g{pos}_",
            circuit.gates[pos].program,
            ones,
            ref=lambda arg: (f"l{arg}", f"h{arg}"),
            self_ref=(f"l{gi}", f"h{gi}"),
            **_overlay_kwargs(engine, pos, gate_at),
        )
        ap("                if pa:")
        ap(f"                    aev |= {1 << gi}")
        ap(f"                    nl = ({l}) | l{gi}; nh = ({h}) | h{gi}")
        ap("                else:")
        ap(f"                    nl = {l}; nh = {h}")
        ap(f"                if nl != l{gi} or nh != h{gi}:")
        ap(f"                    l{gi} = nl; h{gi} = nh; nc |= {1 << gi}")
    ap("            ac = nc")
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


class ArenaKernel:
    """The compiled walk kernel for one ``(circuit, fault overlay)``."""

    def __init__(self, engine: SimEngine):
        self.engine = engine
        self.circuit = engine.circuit
        # Compiled through the engine module's ``_exec`` so one hook
        # there sees every compile of the simulation layer.
        ns = _engine._exec(
            _codegen_walk(engine),
            f"<arena:{engine.circuit.name}:{len(engine.faults)}f>",
        )
        ns["SimulationError"] = SimulationError
        self._walk_fn = ns["walk"]

    def walk(self, reset_state: Optional[int] = None) -> ArenaWalk:
        """Start a walk: force the reset state (output-stuck nodes
        pre-set to their stuck value, as in ``reset_and_settle``),
        fully settle, return the stepping handle."""
        engine = self.engine
        if reset_state is None:
            reset_state = self.circuit.require_reset()
        low, high = engine.broadcast(reset_state)
        for gate_index, (f0, f1) in engine.out_force.items():
            low[gate_index] = (low[gate_index] | f0) & ~f1
            high[gate_index] = (high[gate_index] | f1) & ~f0
        gen = self._walk_fn(low, high)
        next(gen)
        gen.send((-2, 0))
        meter = _WalkMeter(engine) if _obs.enabled() else None
        return ArenaWalk(gen, meter)


def arena_for(
    circuit: Circuit,
    faults: Sequence[Fault] = (),
    width: Optional[int] = None,
) -> ArenaKernel:
    """The (cached) arena walk kernel for a fault overlay; rides the
    engine cache, so eviction policies stay in one place."""
    engine = engine_for(circuit, tuple(faults), width)
    kernel = getattr(engine, "_arena_kernel", None)
    if kernel is None:
        kernel = ArenaKernel(engine)
        engine._arena_kernel = kernel
    return kernel
