"""Fault overlays and the per-circuit compilation they share.

Every workload in this package — scalar ternary settling, word-parallel
fault simulation, CSSG construction's ternary check, the three-phase
generator's and the undetectability classifier's ternary faulty
machines, the test-set auditor — runs the same computation:
Eichelberger's Algorithm A/B fixpoint over one circuit, or, for the
exact settling explorer, excited-gate enumeration.  This module owns
what they share:

**Per-circuit compilation** (:func:`compiled`, once per circuit).  A
straight-line function enumerating excited gates in the binary domain
— the hot inner loop of the exact settling explorer — plus the
levelized gate order (:meth:`Circuit.levels`), the engine cache, and
the arena walk kernels (:meth:`CompiledCircuit.walk_kernel`): one for
the good machine and every input, output and transition overlay, and
one per set of bridged gate pairs (without the pin, self and output
slots when the overlay has only bridging faults).  Each compiles on
first use, the excited-gate function too, so a run that never explores
compiles none.  An exact faulty machine reuses the good circuit's
function and compiles only a patch of the gates its fault rewrites
(:func:`patched_excited`).

**Fault overlays** (:class:`SimEngine`).  One engine pairs the circuit
with a fault-injection overlay:

* *none* — plain good-machine simulation;
* *scalar fault* — one fault, a width-1 packed overlay, which the seed
  test suite already established is bit-for-bit the scalar semantics;
* *packed masks* — W faults simulated in parallel, one machine per bit
  of a Python int (paper §5.4), with the per-fault masks passed to the
  circuit's compiled kernel as arguments.

Four mask families cover the registered fault models
(:mod:`repro.faultmodels`); each is the identity outside its machine
mask, so one word freely mixes models:

* **pin forces** (input stuck-at) — the faulted gate's operand reads
  are clamped, ``(l|f0)&~f1`` / ``(h|f1)&~f0``;
* **output forces** (output stuck-at) — the gate's result words are
  clamped the same way;
* **self blends** (transition faults) — the result is AND-ed
  (slow-to-rise) or OR-ed (slow-to-fall) with the gate's *own current
  value*, the self-sticky encoding of a gross delay fault;
* **bridge blends** (bridging faults) — the result is AND/OR-blended
  with the *partner gate's function*, evaluated inline over the
  partner's true operands; both bridged gates carry the blend.

Every model, the stuck-at pair included, installs its masks through
:meth:`repro.faultmodels.FaultModel.engine_overlay`; every downstream
workload (random TPG, fault grading, the three-phase machines, the
auditor) picks a new kind up unchanged.

**The settle.**  An engine builds its overlay's kernel argument tuple
once, with identity masks where the overlay has none, and
:meth:`SimEngine.settle`, :meth:`SimEngine.walk` and
:meth:`SimEngine.apply_lane` all run the circuit's arena walk kernel
(:mod:`repro.sim.arena`) on it: it is the package's only Algorithm A/B
implementation.  An engine's width is its fault count (one machine for
the good circuit), so every mask lies inside ``ones``; the width is a
parameter of the argument tuple, and only a fault-free engine, whose
masks are all the identity, builds tuples of other widths.

**Lanes.**  Lanes never interact under the kernel's bitwise operators
and the Algorithm A/B fixpoints are unique, so lane *j* of an engine is
bit-for-bit the scalar machine of fault *j*.  That is how the
three-phase generator and the undetectability classifier run their
per-fault ternary machines on their fault list's engine
(:meth:`SimEngine.lane_at_reset`, :meth:`SimEngine.apply_lane`),
compiling nothing per fault.  Both exact machines certify their starts
through one method, :meth:`SimEngine.settle_lanes_if`: the exact faulty
machine gives its fault's lane one start, and CSSG construction gives
the fault-free engine up to :data:`LANES` starts of one stable state,
each lane the good circuit from its own start, in one settle.

Engines are cached per ``(circuit, faults)``, so repeated construction
(the scalar API's per-fault machines, a classifier and a generator over
one fault list) reuses the argument tuple and the settled resets; the
kernel itself is shared by every overlay of the circuit without
bridges, and by every overlay with the same bridged pairs and
families.
"""

from __future__ import annotations

from bisect import insort
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro._bits import iter_set_bits, mask
from repro.circuit.expr import OP_AND, OP_NOT, OP_OR, OP_VAR, OP_XOR, Program
from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.errors import ReproError, SimulationError
from repro.faultmodels import model_for_kind
from repro.sim.arena import (
    ArenaWalk,
    WalkKernel,
    _codegen_walk,
    walk_layout,
)

#: Per-signal words ``((L...), (H...))`` of every machine of an engine.
BatchState = Tuple[Tuple[int, ...], Tuple[int, ...]]

#: Lanes per certificate settle of the CSSG's starts
#: (:func:`repro.sgraph.cssg._edge_certifier`): starts beyond it go to a
#: further :meth:`SimEngine.settle_lanes_if`.
LANES = 64

# ---------------------------------------------------------------------------
# Per-circuit compilation
# ---------------------------------------------------------------------------


def _codegen_value(gate: int, program) -> Tuple[List[str], str]:
    """Straight-line binary evaluation of gate ``gate``'s ``program``:
    the body lines (temporaries ``b{gate}_*``) and the expression of the
    value it drives."""
    stack: List[str] = []
    tmp = 0
    body: List[str] = []
    for op, arg in program:
        if op == OP_VAR:
            stack.append(f"((state>>{arg})&1)")
        elif op == OP_NOT:
            a = f"b{gate}_{tmp}"
            tmp += 1
            body.append(f"    {a} = {stack.pop()}^1")
            stack.append(a)
        elif op in (OP_AND, OP_OR, OP_XOR):
            sym = {OP_AND: "&", OP_OR: "|", OP_XOR: "^"}[op]
            x = stack.pop()
            y = stack.pop()
            a = f"b{gate}_{tmp}"
            tmp += 1
            body.append(f"    {a} = {y}{sym}{x}")
            stack.append(a)
        else:  # OP_CONST
            stack.append(str(arg))
    return body, stack.pop()


def _codegen_excited(circuit: Circuit) -> str:
    """Source of ``excited(state) -> [gate signal indices]``.

    One straight-line block per gate, binary domain, no per-gate call
    overhead — the hot inner loop of the exact settling explorer."""
    lines = ["def excited(state):", "    ex = []", "    ap = ex.append"]
    for gate in circuit.gates:
        body, value = _codegen_value(gate.index, gate.program)
        lines.extend(body)
        lines.append(
            f"    if {value} != ((state>>{gate.index})&1): ap({gate.index})"
        )
    lines.append("    return ex")
    return "\n".join(lines)


def _codegen_patch(programs: Dict[int, Program]) -> str:
    """Source of ``patch(state) -> [gate signal indices]``: ``good``'s
    excited list with the gates of ``programs`` (gate index → faulty
    program) re-evaluated, each dropped from or inserted into the list
    in ascending order, so the list equals the one the faulty netlist's
    own ``excited`` would return, element for element."""
    lines = ["def patch(state):", "    ex = good(state)"]
    for g, program in sorted(programs.items()):
        body, value = _codegen_value(g, program)
        lines.extend(body)
        lines.append(f"    if {value} != ((state>>{g})&1):")
        lines.append(f"        if {g} not in ex: insort(ex, {g})")
        lines.append(f"    elif {g} in ex: ex.remove({g})")
    lines.append("    return ex")
    return "\n".join(lines)


def patched_excited(
    circuit: Circuit, programs: Dict[int, Program], name: str
) -> Callable[[int], List[int]]:
    """The excited-gate function of ``circuit`` with the gates of
    ``programs`` rewritten: the circuit's compiled ``excited`` plus one
    small compiled ``patch`` named ``<patch:name>``, so a faulty machine
    differing in one or two gates never compiles the whole circuit."""
    ns = _exec(_codegen_patch(programs), f"<patch:{name}>")
    ns["good"] = compiled(circuit).excited_signals
    ns["insort"] = insort
    return ns["patch"]


def _add_slots(args: List[int], pairs: List[Tuple[int, int]], ones: int) -> None:
    """Append the four words of each ``(m0, m1)`` mask pair: ``m0``,
    ``ones & ~m1``, ``m1``, ``ones & ~m0``."""
    for m0, m1 in pairs:
        args += (m0, ones & ~m1, m1, ones & ~m0)


def _add_family(args: List[int], pairs: List[Tuple[int, int]], ones: int) -> None:
    """Append a flagged slot family: the flag (any mask set), then
    :func:`_add_slots`."""
    args.append(any(m0 or m1 for m0, m1 in pairs))
    _add_slots(args, pairs, ones)


def _exec(src: str, filename: str) -> Dict[str, object]:
    ns: Dict[str, object] = {}
    exec(compile(src, filename, "exec"), ns)  # noqa: S102 - trusted codegen
    return ns


class CompiledCircuit:
    """Everything the engines precompute once per circuit."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.n_inputs = circuit.n_inputs
        self.n_signals = circuit.n_signals
        self.gate_index: Tuple[int, ...] = tuple(g.index for g in circuit.gates)
        self.order: Tuple[int, ...] = circuit.levels()
        self._excited: Optional[Callable[[int], List[int]]] = None
        self._engines: "OrderedDict[Tuple[Fault, ...], SimEngine]" = OrderedDict()
        self._walks: Dict[Tuple[Tuple[Tuple[int, int], ...], bool], WalkKernel] = {}

    @property
    def excited_signals(self) -> Callable[[int], List[int]]:
        """``excited(state) -> [gate indices]`` in the binary domain,
        compiled on first use: a run that never explores (its CSSG read
        from a store, every exact start certified) compiles none."""
        if self._excited is None:
            circuit = self.circuit
            ns = _exec(_codegen_excited(circuit), f"<excited:{circuit.name}>")
            self._excited = ns["excited"]
        return self._excited

    def walk_kernel(
        self, bridge_pairs: Tuple[Tuple[int, int], ...], full: bool
    ) -> WalkKernel:
        """The circuit's arena walk kernel with blend slots for the
        bridged ``(gate, partner)`` pairs, and with the pin, self and
        output families when ``full``, compiled on first use.  The good
        machine and every input, output and transition overlay share
        the bridge-free kernel, which is always full; an overlay of
        bridging faults alone runs on a kernel without those families,
        and a bridging overlay mixed with other kinds on a full one.  A
        kernel is published by one assignment, so two threads racing
        here at worst compile it twice."""
        key = (bridge_pairs, full)
        kernel = self._walks.get(key)
        if kernel is None:
            circuit = self.circuit
            layout = walk_layout(circuit, bridge_pairs)
            name = circuit.name
            if bridge_pairs:
                name += f":{len(bridge_pairs)}br" + ("+pso" if full else "")
            ns = _exec(_codegen_walk(circuit, layout, full), f"<arena:{name}>")
            ns["SimulationError"] = SimulationError
            kernel = self._walks[key] = WalkKernel(ns["walk"], layout, full)
        return kernel


def compiled(circuit: Circuit) -> CompiledCircuit:
    """The (cached) compiled form of ``circuit``."""
    cc = getattr(circuit, "_compiled", None)
    if cc is None:
        cc = CompiledCircuit(circuit)
        circuit._compiled = cc
    return cc


#: Engine-cache capacity per circuit.  Reuse-heavy callers (the scalar
#: ternary API iterating a universe, the auditor rebuilding the
#: same-universe batch per test) fit comfortably; one-shot overlays with
#: ever-changing fault subsets (the ATPG loop's shrinking fault-sim
#: batches) just cycle through and evict, bounding memory.
_ENGINE_CACHE_SIZE = 128


def engine_for(circuit: Circuit, faults: Sequence[Fault] = ()) -> "SimEngine":
    """The (cached) engine for ``circuit`` with the overlay of
    ``faults``.  The per-circuit cache is LRU-bounded to
    ``_ENGINE_CACHE_SIZE`` overlays."""
    cc = compiled(circuit)
    faults = tuple(faults)
    engine = cc._engines.get(faults)
    if engine is None:
        engine = SimEngine(circuit, faults)
        cc._engines[faults] = engine
        if len(cc._engines) > _ENGINE_CACHE_SIZE:
            cc._engines.popitem(last=False)
    else:
        cc._engines.move_to_end(faults)
    return engine


def lane_of(words: BatchState, j: int) -> Tuple[int, int]:
    """Machine ``j`` of per-signal words ``(L, H)`` as a scalar ternary
    ``(L, H)`` pair."""
    low, high = words
    sl = 0
    sh = 0
    for i in range(len(low)):
        sl |= ((low[i] >> j) & 1) << i
        sh |= ((high[i] >> j) & 1) << i
    return (sl, sh)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class SimEngine:
    """One circuit + one fault overlay: machine *j* carries fault *j*,
    and a fault-free engine is the one good machine.

    State is a pair of per-signal word lists ``(L, H)``: bit *j* of
    ``L[i]`` means "signal *i* of machine *j* can be 0", likewise ``H``
    for "can be 1" — the exact encoding of the seed simulators.
    :meth:`settle` mutates the lists in place.
    """

    def __init__(self, circuit: Circuit, faults: Sequence[Fault] = ()):
        self.circuit = circuit
        self.cc = cc = compiled(circuit)
        self.faults = tuple(faults)
        self.width = max(1, len(self.faults))
        self.ones = mask(self.width)
        # Overlay mask tables, filled per fault (one machine bit each)
        # by the fault's model through its ``engine_overlay`` hook.
        #: pin_force[gate signal index][site] = (force-0 mask, force-1 mask)
        self.pin_force: Dict[int, Dict[int, Tuple[int, int]]] = {}
        #: out_force[gate signal index] = (force-0 mask, force-1 mask)
        self.out_force: Dict[int, Tuple[int, int]] = {}
        #: self_and/self_or[gate signal index] = machine mask whose result
        #: is blended with the gate's own current value (transition faults).
        self.self_and: Dict[int, int] = {}
        self.self_or: Dict[int, int] = {}
        #: bridges[gate signal index][partner signal index] =
        #: (wired-AND mask, wired-OR mask) — the gate's result is blended
        #: with the partner gate's (clean) function for those machines.
        self.bridges: Dict[int, Dict[int, Tuple[int, int]]] = {}
        for j, fault in enumerate(self.faults):
            try:
                model = model_for_kind(fault.kind)
            except ReproError as exc:
                raise SimulationError(str(exc)) from None
            model.engine_overlay(self, fault, j)
        self._bridge_pairs = tuple(
            sorted((g, p) for g, per_gate in self.bridges.items() for p in per_gate)
        )
        #: Whether the kernel needs the pin, self and output families:
        #: always without bridges (one kernel per circuit), and with
        #: them only when the overlay sets one.
        self._full = not self._bridge_pairs or bool(
            self.pin_force or self.out_force or self.self_and or self.self_or
        )
        #: The kernel argument tuple, per lane width (see :meth:`_start`).
        self._args: Dict[int, Tuple[int, ...]] = {}
        self._all = mask(cc.n_signals)
        #: Every machine settled from each forced reset state, and from
        #: all-zero words (:meth:`_rest`), computed on first use.
        self._resets: Dict[int, BatchState] = {}
        self._at_rest: Optional[BatchState] = None

    def _walk_args(self, kernel: WalkKernel, width: int) -> Tuple[int, ...]:
        """The kernel argument tuple of this overlay over ``width`` lanes
        (see :func:`repro.sim.arena._arg_names` for the order): every
        slot this overlay leaves empty gets identity masks, and each
        flagged family's flag says whether any of its slots is set."""
        ones = mask(width)
        full = kernel.full
        args: List[int] = [ones, 2 * self.cc.n_signals * width + 4]
        for gi, sites, partners in kernel.layout:
            if full and sites:
                pins = self.pin_force.get(gi, {})
                _add_family(args, [pins.get(s, (0, 0)) for s in sites], ones)
            bridged = self.bridges.get(gi, {})
            _add_slots(args, [bridged[p] for p in partners], ones)
            if full:
                self_blend = (self.self_and.get(gi, 0), self.self_or.get(gi, 0))
                _add_family(args, [self_blend], ones)
                _add_family(args, [self.out_force.get(gi, (0, 0))], ones)
        return tuple(args)

    def _start(self, L: Sequence[int], H: Sequence[int], width: int = 0):
        """A primed generator of the circuit's walk kernel holding
        ``(L, H)``, run with this overlay's arguments over ``width``
        lanes (default: the engine's own width).  Only a fault-free
        engine runs another width: its overlay is the identity, so any
        number of lanes are each the good machine."""
        width = width or self.width
        kernel = self.cc.walk_kernel(self._bridge_pairs, self._full)
        args = self._args.get(width)
        if args is None:
            args = self._args[width] = self._walk_args(kernel, width)
        gen = kernel.run(L, H, args)
        next(gen)
        return gen

    def settle(
        self, L: List[int], H: List[int], changed: Optional[int] = None
    ) -> None:
        """Algorithm A then Algorithm B, in place.

        ``changed`` is the bitmask of signals whose words were rewritten
        since the state last settled **under this same engine** — then
        only the gates reading them are re-examined.  None (the default)
        is for arbitrary states: every gate is."""
        gen = self._start(L, H)
        gen.send((-2, self._all if changed is None else changed))
        L[:], H[:] = gen.send((-3, 0))

    def broadcast(self, state: int) -> Tuple[List[int], List[int]]:
        """Per-signal word lists replicating a binary state across all
        machines of this engine."""
        ones = self.ones
        L = [(0 if (state >> i) & 1 else ones) for i in range(self.cc.n_signals)]
        H = [(ones if (state >> i) & 1 else 0) for i in range(self.cc.n_signals)]
        return L, H

    def settle_lanes_if(
        self,
        starts: Dict[int, int],
        seed: Optional[int],
        accept: Callable[[int, int], bool],
    ) -> Dict[int, Optional[int]]:
        """Each lane of ``starts`` (lane → binary start) settled from its
        start: per lane, the definite state it ends in, or None.

        Lanes left out of ``starts`` hold its first start; a fault-free
        engine runs as many lanes as it is given, each the good machine.
        Algorithm A runs alone, examining first the gates that read a
        signal of ``seed`` (None: every gate), and ``accept(lane, phi)``
        is shown the bitmask of the signals A leaves at Φ on each given
        lane that has any.  One Algorithm B then runs for every accepted
        lane, seeded with the union of their Φ signals, which covers
        every signal A left at Φ on them.  A lane refused, or left at Φ
        by B, settles to None.

        A seed narrower than every signal is sound when each start is a
        stable state of its lane's machine with only the seed signals
        (its inputs) rewritten: every other gate evaluates to its own
        value, so A would not move it before a seed signal's change
        reached it.  Lanes never interact, so the lanes left out may
        stop short of their fixpoint unseen.  Lanes may drive different
        inputs, which breaks the kernel's input-drive invariant
        (:func:`repro.sim.arena._codegen_walk`): the generator only
        settles, and is never stepped."""
        n_signals = self.cc.n_signals
        width = self.width if self.faults else max(starts) + 1
        ones = mask(width)
        first = next(iter(starts.values()))
        high = [ones if (first >> i) & 1 else 0 for i in range(n_signals)]
        flips = {j: start ^ first for j, start in starts.items()}
        varying = 0
        for diff in flips.values():
            varying |= diff
        for i in iter_set_bits(varying):
            high[i] ^= sum(((diff >> i) & 1) << j for j, diff in flips.items())
        gen = self._start([ones & ~h for h in high], high, width)
        gen.send((-4, self._all if seed is None else seed))
        low, high = gen.send((-3, 0))
        read = sum(1 << j for j in starts)
        phi: Dict[int, int] = {}
        for i in range(self.cc.n_inputs, n_signals):
            for j in iter_set_bits(low[i] & high[i] & read):
                phi[j] = phi.get(j, 0) | (1 << i)
        out: Dict[int, Optional[int]] = dict(starts)
        accepted = {}
        union = 0
        for j, gates in phi.items():
            if accept(j, gates):
                accepted[j] = gates
                union |= gates
            else:
                out[j] = None
        if not accepted:
            return out
        gen.send((-2, union))
        low, high = gen.send((-3, 0))
        for j, gates in accepted.items():
            bit = 1 << j
            state = out[j]
            for i in iter_set_bits(gates):
                if not high[i] & bit:
                    state &= ~(1 << i)
                elif low[i] & bit:
                    state = None
                    break
                else:
                    state |= 1 << i
            out[j] = state
        return out

    def reset_words(
        self, reset_state: Optional[int] = None
    ) -> Tuple[List[int], List[int]]:
        """:meth:`broadcast` of the reset state (the circuit's own by
        default) as a tester forces it: output-stuck nodes are pre-set to
        their stuck value (see :func:`repro.sim.ternary.settle_from_reset`)."""
        if reset_state is None:
            reset_state = self.circuit.require_reset()
        L, H = self.broadcast(reset_state)
        for gi, (f0, f1) in self.out_force.items():
            L[gi] = (L[gi] | f0) & ~f1
            H[gi] = (H[gi] | f1) & ~f0
        return L, H

    def walk(self, reset_state: Optional[int] = None) -> ArenaWalk:
        """Start a walk: force the reset state (:meth:`reset_words`),
        fully settle, return the stepping handle."""
        gen = self._start(*self.reset_words(reset_state))
        gen.send((-2, self._all))
        return ArenaWalk(gen)

    def lane_at_reset(self, j: int, reset_state: int) -> Tuple[int, int]:
        """Machine ``j`` settled from the forced ``reset_state`` (see
        :meth:`reset_words`), as a scalar ternary ``(L, H)`` pair.
        Every machine settles together, once per reset state."""
        settled = self._resets.get(reset_state)
        if settled is None:
            L, H = self.reset_words(reset_state)
            self.settle(L, H)
            settled = self._resets[reset_state] = (tuple(L), tuple(H))
        return lane_of(settled, j)

    def apply_lane(
        self, tstate: Tuple[int, int], pattern: int, j: int
    ) -> Tuple[int, int]:
        """One synchronous test cycle of machine ``j`` alone: ``tstate``
        is its settled scalar ternary state (from :meth:`lane_at_reset`
        or this method), and so is the result.

        The other lanes rest at a fixpoint of their own machine (see
        :meth:`_rest`), and no input of theirs is driven, so they never
        move: the settle does lane ``j``'s work alone.  Lanes never
        interact and the fixpoints are unique, so lane ``j`` ends at
        exactly the scalar machine's fixpoint."""
        imask = mask(self.cc.n_inputs)
        low, high = tstate
        nlow = (low & ~imask) | (~pattern & imask)
        nhigh = (high & ~imask) | (pattern & imask)
        changed = (nlow ^ low) | (nhigh ^ high)
        if not changed:
            return tstate
        rest_low, rest_high = self._rest()
        others = self.ones & ~(1 << j)
        L = [(w & others) | (((nlow >> i) & 1) << j) for i, w in enumerate(rest_low)]
        H = [(w & others) | (((nhigh >> i) & 1) << j) for i, w in enumerate(rest_high)]
        self.settle(L, H, changed)
        return lane_of((L, H), j)

    def _rest(self) -> BatchState:
        """Every machine settled from all-zero words, computed once.

        A zero pair is neither 0 nor 1, and no lane read through
        :meth:`apply_lane` ever holds it; it only keeps the other lanes'
        words small.  Every kernel operator is monotone in each bit, so
        from zero Algorithm A only raises values and Algorithm B, which
        starts where A's lub leaves every gate at or above its
        evaluation, only lowers them: the settle terminates, at a
        fixpoint of every machine with its inputs at zero."""
        if self._at_rest is None:
            L = [0] * self.cc.n_signals
            H = list(L)
            self.settle(L, H)
            self._at_rest = (tuple(L), tuple(H))
        return self._at_rest
