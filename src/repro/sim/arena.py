"""The arena walk kernel: the package's one Algorithm A/B settle.

Every ternary settle runs here: random TPG and test-set walks, the
scalar API of :mod:`repro.sim.ternary`, and the three-phase and
classifier faulty machines (each one a lane of the kernel their fault
list runs on).

A kernel is generated from the circuit alone, never from an overlay's
masks: every gate carries *argument slots* for its pin forces (one per
support signal), its self blend and its output force, and every
overlay's masks arrive as one argument tuple the generator unpacks into
locals when it starts.  So one kernel per circuit serves the good
machine and every input, output and transition overlay, however many
faults it carries.  Only bridging, whose blends evaluate a partner gate
inline, adds a kernel per set of bridged gate pairs, and such a kernel
carries only the families its overlay sets: an overlay of bridging
faults alone gets one with no pin, self or output slot, and a bridging
overlay mixed with other kinds one with every family.
:class:`~repro.sim.engine.CompiledCircuit` compiles and caches them;
each :class:`~repro.sim.engine.SimEngine` builds its argument tuple
once, with identity masks where its overlay has none.

The kernel is one generated *generator* whose locals hold every
signal's ``(l, h)`` words; each request is a single ``send`` (see
:func:`_codegen_walk` for the protocol), so state never leaves the
generator frame between test cycles of a walk.  Settling is
Eichelberger's Algorithm A then Algorithm B, driven by an int bitmask
of changed signals: a pass re-evaluates only gates whose exam mask
intersects the changes (no queue, no per-event allocation, no per-gate
function calls).  Both algorithms run through one sweep body in which
every gate is emitted once; a phase flag picks the update (Algorithm A:
lub into the old value; Algorithm B: plain assignment), and B starts
from every signal changed since the settle began.  A step drives its
inputs by swapping words (a walk's inputs are definite and
lane-uniform), and a step and a bare observation share one observation
block.  Both fixpoints are unique under any fair order, so the kernel
is bit-identical to the seed's sweeps kept with the tests
(``tests/fuzzer/reference.py``), which ``tests/test_sim_cross.py`` and
``tests/test_arena.py`` check.

CPython bignum bitwise ops are already C-speed word-parallel, so one
bignum word per signal carries the whole fault universe of every bundled
benchmark.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro.circuit.expr import OP_AND, OP_NOT, OP_OR, OP_VAR, OP_XOR, Program
from repro.circuit.netlist import Circuit, Gate

__all__ = ["ArenaWalk", "WalkKernel", "walk_layout"]

#: Per gate, in declaration order: ``(gate signal index, pin sites,
#: bridge partners)`` — the gate's support, and the partners it is
#: bridged to, sorted.  It fixes the kernel's argument order.
WalkLayout = Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...]], ...]


class WalkKernel(NamedTuple):
    """One compiled walk kernel: ``run(low, high, args)`` is the
    generator function, and ``layout`` and ``full`` fix the order of
    ``args`` (see :func:`_arg_names`)."""

    run: Callable
    layout: WalkLayout
    full: bool


def walk_layout(
    circuit: Circuit, bridge_pairs: Sequence[Tuple[int, int]] = ()
) -> WalkLayout:
    """The argument layout of ``circuit``'s kernel with blends for the
    bridged ``(gate, partner)`` pairs."""
    partners: Dict[int, List[int]] = {}
    for gate, partner in bridge_pairs:
        partners.setdefault(gate, []).append(partner)
    return tuple(
        (g.index, tuple(g.support), tuple(sorted(partners.get(g.index, ()))))
        for g in circuit.gates
    )


def _slot(prefix: str) -> List[str]:
    """The four argument words of one mask slot: masks ``m0`` / ``m1``
    and their complements within ``ones``, ``k1 = ones & ~m1`` and
    ``k0 = ones & ~m0``."""
    return [f"{prefix}m0", f"{prefix}k1", f"{prefix}m1", f"{prefix}k0"]


def _arg_names(layout: WalkLayout, full: bool) -> List[str]:
    """The locals the kernel unpacks its argument tuple into, in order:
    ``ones`` and the round cap, then per gate its slot families — its
    pins (one slot per support signal, none for a gate without
    support), its bridges (one per partner, none for an unbridged
    gate), its self blend and its output force.  The pin, self and
    output families each lead with a flag and are present only in a
    ``full`` kernel; bridges have no flag, since a bridging kernel is
    compiled for exactly its overlay's pairs and every one is set."""
    names = ["ones", "cap"]
    for gi, sites, partners in layout:
        if full and sites:
            names.append(f"fp{gi}")
            for s in sites:
                names += _slot(f"p{gi}_{s}")
        for p in partners:
            names += _slot(f"b{gi}_{p}")
        if full:
            names += [f"fs{gi}"] + _slot(f"s{gi}") + [f"fo{gi}"] + _slot(f"o{gi}")
    return names


def _emit_eval(
    lines: List[str],
    indent: str,
    gate: Gate,
    partners: Tuple[int, ...],
    gate_at: Dict[int, Gate],
    full: bool,
) -> Tuple[str, str]:
    """Append the straight-line evaluation of ``gate`` with its overlay
    slots to ``lines``; returns the ``(l, h)`` result locals, which are
    the gate's own temporaries, free for the caller to update in place.

    This is the single source of truth for the ternary operator and
    overlay-mask formulas.  Operands are the kernel's locals ``l{sig}``
    / ``h{sig}``; each slot is a pair of per-machine masks ``m0`` /
    ``m1`` (with complements ``k1`` / ``k0``, see :func:`_slot`):

    * pin ``p{gate}_{site}`` (input stuck-at) clamps the operand read
      once per evaluation, ``(l|m0)&k1`` / ``(h|m1)&k0``, for the
      force-0 machines ``m0`` and force-1 machines ``m1``;
    * bridge ``b{gate}_{partner}``: the partner's (clean) function is
      evaluated inline and blended in — the ternary AND for machines in
      ``m0`` (wired-AND), the OR for ``m1`` (wired-OR);
    * self ``s{gate}`` blends the gate's **own current value** in the
      same way (AND for ``m0``, OR for ``m1``) — the self-sticky
      encoding of slow-to-rise / slow-to-fall transition faults;
    * output ``o{gate}`` forces the result words like a pin.

    Every slot is the identity outside its masks (every word fits in
    ``ones``), and each machine bit carries at most one fault, so the
    application order is immaterial.  The pin, self and output families
    of a gate sit behind a flag each (``fp`` / ``fs`` / ``fo`` + gate),
    false when the overlay leaves the whole family at identity, so an
    overlay pays only for the families it sets; a kernel that is not
    ``full`` has none of them, and reads its operands straight from the
    signal locals.  Temporaries are introduced per operator, so the
    generated code is linear in the program length (shared subterms are
    never re-expanded).
    """
    gi = gate.index
    tag = f"g{gi}_"
    counter = [0]
    own = set()
    ap = lines.append
    inner = indent + "    "

    def fresh() -> Tuple[str, str]:
        a, b = f"{tag}t{counter[0]}", f"{tag}u{counter[0]}"
        counter[0] += 1
        own.add(a)
        return a, b

    def emit(prog: Program, read, at: str) -> Tuple[str, str]:
        """Append the evaluation of ``prog`` at indent ``at``, reading
        signal ``s`` as ``read(s)``; returns the (l, h) results."""
        stack: List[Tuple[str, str]] = []
        for op, arg in prog:
            if op == OP_VAR:
                stack.append(read(arg))
            elif op == OP_NOT:
                l, h = stack.pop()
                stack.append((h, l))
            elif op == OP_AND:
                l2, h2 = stack.pop()
                l1, h1 = stack[-1]
                a, b = fresh()
                ap(f"{at}{a} = {l1}|{l2}; {b} = {h1}&{h2}")
                stack[-1] = (a, b)
            elif op == OP_OR:
                l2, h2 = stack.pop()
                l1, h1 = stack[-1]
                a, b = fresh()
                ap(f"{at}{a} = {l1}&{l2}; {b} = {h1}|{h2}")
                stack[-1] = (a, b)
            elif op == OP_XOR:
                l2, h2 = stack.pop()
                l1, h1 = stack[-1]
                a, b = fresh()
                ap(
                    f"{at}{a} = ({l1}&{l2})|({h1}&{h2}); "
                    f"{b} = ({l1}&{h2})|({h1}&{l2})"
                )
                stack[-1] = (a, b)
            else:  # OP_CONST
                stack.append(("0", "ones") if arg else ("ones", "0"))
        return stack.pop()

    def signal(s: int) -> Tuple[str, str]:
        return f"l{s}", f"h{s}"

    read = signal
    if full and gate.support:
        ap(f"{indent}if fp{gi}:")
        for s in gate.support:
            p = f"p{gi}_{s}"
            ap(
                f"{inner}x{gi}_{s} = (l{s}|{p}m0)&{p}k1; "
                f"y{gi}_{s} = (h{s}|{p}m1)&{p}k0"
            )
        ap(f"{indent}else:")
        copies = (f"x{gi}_{s} = l{s}; y{gi}_{s} = h{s}" for s in gate.support)
        ap(inner + "; ".join(copies))
        own.update(f"{xy}{gi}_{s}" for xy in "xy" for s in gate.support)
        read = lambda s: (f"x{gi}_{s}", f"y{gi}_{s}")
    l, h = emit(gate.program, read, indent)
    if l not in own:  # a constant or a bare operand: give it own locals
        a, b = fresh()
        ap(f"{indent}{a} = {l}; {b} = {h}")
        l, h = a, b
    for partner in partners:
        lb, hb = emit(gate_at[partner].program, signal, indent)
        b = f"b{gi}_{partner}"
        ap(
            f"{indent}{l} = ({l}|({lb}&{b}m0))&({lb}|{b}k1); "
            f"{h} = ({h}&({hb}|{b}k0))|({hb}&{b}m1)"
        )
    if full:
        ap(f"{indent}if fs{gi}:")
        ap(
            f"{inner}{l} = ({l}|(l{gi}&s{gi}m0))&(l{gi}|s{gi}k1); "
            f"{h} = ({h}&(h{gi}|s{gi}k0))|(h{gi}&s{gi}m1)"
        )
        ap(f"{indent}if fo{gi}:")
        ap(f"{inner}{l} = ({l}|o{gi}m0)&o{gi}k1; {h} = ({h}|o{gi}m1)&o{gi}k0")
    return l, h


def _exam_mask(gate: Gate, partners: Tuple[int, ...], gate_at) -> int:
    """Signal bitmask that must intersect the changed-set for ``gate``
    to need re-evaluation: its support, any bridge partner's support,
    and its own output (covers self blends and seeding)."""
    sigs = set(gate.support)
    sigs.add(gate.index)
    for partner in partners:
        sigs.update(gate_at[partner].support)
    m = 0
    for s in sigs:
        m |= 1 << s
    return m


def _codegen_walk(circuit: Circuit, layout: WalkLayout, full: bool) -> str:
    """Source of the arena walk generator ``walk(low, high, args)`` for
    ``circuit`` with the slots of ``layout`` (and, when ``full``, the
    pin, self and output families); ``args`` holds the words
    :func:`_arg_names` lists, in that order.

    Protocol (after priming with ``next``): ``send((pattern, good))``
    with ``pattern >= 0`` runs one test cycle — drive inputs, Algorithm
    A then B over the changed-signal bitmask, observe — and yields the
    detection word.  Control ops use negative first elements:
    ``(-1, good)`` observes without stepping; ``(-2, changed)`` settles
    the current state, re-examining the gates whose exam mask meets
    the ``changed`` signal bitmask (every signal for an arbitrary
    state, only the rewritten ones for a state that had settled under
    these arguments); ``(-4, changed)`` does the same but stops at
    Algorithm A's fixpoint, and a later ``(-2, phi)``, with ``phi``
    covering every signal A left at Φ in the machines read, finishes
    Algorithm B for them; ``(-3, 0)`` yields a snapshot
    ``((l...), (h...))`` of every signal word.

    A step and ``-1`` share the one observation block: ``-1`` enters
    the settle with nothing changed, which falls straight through.

    *Input drive.*  A walk's inputs are definite and lane-uniform: its
    state comes from :meth:`~repro.sim.engine.SimEngine.reset_words`,
    which broadcasts a binary state, and no overlay forces an input
    signal (an input stuck-at fault clamps a gate's pin).  So input
    ``i``'s words are ``(ones, 0)`` or ``(0, ones)``, the generator
    keeps the binary input vector ``cur`` they encode, and a step
    drives ``pattern`` by swapping the two words of each input in
    ``pattern ^ cur``, which is also the changed-signal bitmask the
    settle starts from.  The other ops never move an input, and the
    states that break the invariant are never stepped: the word lists
    of :meth:`~repro.sim.engine.SimEngine.settle`, and the certificate
    starts of :meth:`~repro.sim.engine.SimEngine.settle_lanes_if`, the
    one door of both exact machines, whose inputs may differ from lane
    to lane, so ``cur`` means nothing there.

    *Algorithm B's seed.*  ``sc`` accumulates every signal changed
    since the settle began (the starting bitmask and each pass's
    changes).  The gates whose exam mask meets ``sc`` are exactly the
    gates Algorithm A evaluated; every other gate read no change, so it
    still holds the value it held at a settled start and B cannot move
    it until a fan-in does.  B's first pass re-examines them from
    ``sc``, and since B's fixpoint is unique, the result is the one a
    sweep of every gate would reach.
    """
    n_signals = circuit.n_signals
    n_inputs = circuit.n_inputs
    gate_at = {g.index: g for g in circuit.gates}
    partners_of = {gi: partners for gi, _, partners in layout}
    lows = ", ".join(f"l{i}" for i in range(n_signals)) + ","
    highs = ", ".join(f"h{i}" for i in range(n_signals)) + ","
    lines: List[str] = ["def walk(low, high, args):"]
    ap = lines.append
    ap("    " + ", ".join(_arg_names(layout, full)) + " = args")
    ap(f"    {lows} = low")
    ap(f"    {highs} = high")
    inputs = " | ".join(f"(h{i} and {1 << i})" for i in range(n_inputs))
    ap(f"    cur = {inputs or 0}")
    ap("    r = None")
    ap("    while True:")
    ap("        a, b = yield r")
    ap("        if a >= 0:")
    ap("            ac = a ^ cur; cur = a")
    for i in range(n_inputs):
        ap(f"            if ac & {1 << i}: l{i}, h{i} = h{i}, l{i}")
    ap("        elif a == -3:")
    ap(f"            r = (({lows}), ({highs}))")
    ap("            continue")
    ap("        else:")
    ap("            ac = 0 if a == -1 else b")
    # Algorithm A (pa = 1): value <- lub(value, eval), to the least
    # fixpoint; then Algorithm B (pa = 0): value <- eval, monotone
    # decreasing to the greatest fixpoint below it.  Each pass
    # re-evaluates exactly the gates whose exam mask meets the signals
    # changed so far (ac) or in this pass (nc); B starts from every
    # signal changed since the settle began (sc).
    ap("        sc = ac; pa = 1; rounds = 0")
    ap("        while ac or pa:")
    ap("            if not ac:")
    ap("                if a == -4:")
    ap("                    break")
    ap("                pa = 0; ac = sc; rounds = 0")
    ap("                continue")
    ap("            nc = 0")
    ap("            rounds += 1")
    ap("            if rounds > cap:")
    ap(
        "                raise SimulationError('Algorithm ' + ('A' if pa else 'B')"
        " + ' failed to converge (internal bug)')"
    )
    for pos in circuit.levels():
        gate = circuit.gates[pos]
        gi = gate.index
        partners = partners_of[gi]
        ap(f"            if (ac | nc) & {_exam_mask(gate, partners, gate_at)}:")
        l, h = _emit_eval(lines, "                ", gate, partners, gate_at, full)
        ap(f"                if pa: {l} |= l{gi}; {h} |= h{gi}")
        ap(f"                if {l} != l{gi} or {h} != h{gi}:")
        ap(f"                    l{gi} = {l}; h{gi} = {h}; nc |= {1 << gi}")
    ap("            ac = nc; sc |= nc")
    ap("        if a < -1:")
    ap("            r = None")
    ap("            continue")
    # Detection: definite output difference vs the good state in b (the
    # formula of repro.sim.ternary.detects, one machine per bit).
    ap("        r = 0")
    for o in circuit.outputs:
        ap(f"        r |= (l{o} & ~h{o}) if (b >> {o}) & 1 else (h{o} & ~l{o})")
    return "\n".join(lines)


class ArenaWalk:
    """One in-flight walk of an engine's machines.

    Thin handle over the kernel's generator: :meth:`step` is one test
    cycle returning the detection mask, :meth:`observe` re-observes the
    current state (observation 0 after reset), :meth:`state` snapshots
    the per-signal words (:func:`repro.sim.engine.lane_of` reads one
    machine out of them).
    """

    __slots__ = ("_gen",)

    def __init__(self, gen):
        self._gen = gen

    def step(self, pattern: int, good_state: int) -> int:
        """Drive ``pattern``, settle, observe against ``good_state``."""
        return self._gen.send((pattern, good_state))

    def observe(self, good_state: int) -> int:
        """Detection mask of the current (already settled) state."""
        return self._gen.send((-1, good_state))

    def state(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Snapshot ``(low words, high words)`` of every signal."""
        return self._gen.send((-3, 0))
