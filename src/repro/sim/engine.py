"""The compiled, event-driven simulation engine.

Every workload in this package — scalar ternary settling, word-parallel
fault simulation, exact settling exploration, CSSG construction, the
three-phase generator, the test-set auditor — ultimately runs the same
computation: Eichelberger's Algorithm A/B fixpoint (or, for the exact
explorer, excited-gate enumeration) over one circuit.  The seed tree
implemented that loop three separate times, each as a full-circuit sweep
with per-gate closure dispatch through :func:`repro.circuit.expr.eval_ternary`.
This module replaces all of them with one compiled core:

**Compilation** (once per circuit).  Each gate's postfix program is
translated to a small Python function evaluating the ternary ``(l, h)``
pair straight off per-signal word lists — no AST walk, no stack
interpreter, no ``getv`` closure per operand.  A companion whole-circuit
function enumerates excited gates in the binary domain for the exact
settling explorer; it is compiled with the circuit.  The per-gate
evaluators are compiled on an engine's first :meth:`SimEngine.settle`
instead, because many engines never settle: random TPG only steps the
arena walk kernel, which reads the engine's mask tables, and the
three-phase generator's faulty machines only enumerate excited gates.
The circuit additionally provides cached fanout lists and a levelized
schedule (:meth:`Circuit.fanouts`, :meth:`Circuit.levels`) that the
engine consumes.

**Event-driven settling.**  Algorithms A and B are run with a worklist:
only gates whose fan-in changed are re-evaluated, seeded either from the
dirtied inputs/fault sites (when the caller starts from a settled state)
or from every gate (arbitrary states).  Both fixpoints are invariant
under evaluation order (the ternary operators are monotone on a finite
lattice, so chaotic iteration converges to the same least/greatest
fixpoint as the seed's sweeps), which makes the event-driven results
bit-identical to the original implementation — a property
``tests/test_sim_cross.py`` checks against the preserved reference in
:mod:`repro.sim.legacy`.

**Fault overlays.**  One engine instance pairs the compiled circuit with
a fault-injection overlay:

* *none* — plain good-machine simulation;
* *scalar fault* — one fault, as used by per-fault ternary machines;
  implemented as a width-1 packed overlay, which the seed test suite
  already established is bit-for-bit the scalar semantics;
* *packed masks* — W faults simulated in parallel, one machine per bit
  of a Python int (paper §5.4), with the per-fault masks baked into the
  affected gates' compiled code.

Four mask families cover the registered fault models
(:mod:`repro.faultmodels`); each is the identity outside its machine
mask, so one word freely mixes models:

* **pin forces** (input stuck-at) — the faulted gate's operand reads
  are clamped, ``(l|f0)&~f1`` / ``(h|f1)&~f0``;
* **output forces** (output stuck-at) — the gate's result words are
  clamped the same way;
* **self blends** (transition faults) — the result is AND-ed
  (slow-to-rise) or OR-ed (slow-to-fall) with the gate's *own current
  value*, the self-sticky encoding of a gross delay fault; the engine
  widens its fanout so the self-dependency re-triggers evaluation;
* **bridge blends** (bridging faults) — the result is AND/OR-blended
  with the *partner gate's function*, evaluated inline over the
  partner's true operands; both bridged gates carry the blend and the
  fanout is widened with the partner's support.

A model outside the inlined stuck-at pair installs its masks through
:meth:`repro.faultmodels.FaultModel.engine_overlay`; every downstream
workload (random TPG, fault grading, the three-phase machines, the
auditor) picks the new kind up unchanged.

Engines are cached per ``(circuit, faults, width)`` so repeated
construction (per-fault machines, per-test auditing batches) reuses the
compiled code.  Only gates actually touched by an overlay are recompiled;
the rest share the circuit's clean functions.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro._bits import mask
from repro.circuit.expr import (
    OP_AND,
    OP_CONST,
    OP_NOT,
    OP_OR,
    OP_VAR,
    OP_XOR,
    Program,
)
from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.errors import ReproError, SimulationError

GateFn = Callable[[List[int], List[int]], Tuple[int, int]]

# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


def _emit_eval(
    lines: List[str],
    indent: str,
    tag: str,
    program: Program,
    ones: int,
    ref: Callable[[int], Tuple[str, str]],
    pin_force: Optional[Dict[int, Tuple[int, int]]] = None,
    out_force: Optional[Tuple[int, int]] = None,
    self_ref: Optional[Tuple[str, str]] = None,
    self_and: int = 0,
    self_or: int = 0,
    bridges: Optional[List[Tuple[Program, int, int]]] = None,
) -> Tuple[str, str]:
    """Append the straight-line evaluation of one gate to ``lines``;
    returns the final ``(l, h)`` result expressions.

    This is the single source of truth for the ternary operator and
    overlay-mask formulas: the per-gate function compiler below and the
    arena walk kernel (:mod:`repro.sim.arena`) both emit through it, so
    the worklist and generator-walk paths cannot drift apart.
    ``ref(sig)`` names a signal's (l, h) operand pair in the target
    kernel's vocabulary (list reads or locals).  Overlay hooks, each a
    per-machine mask over the word's bits:

    * ``pin_force[site] = (f0, f1)`` bakes per-pin stuck-at masks into
      the operand reads;
    * ``bridges`` is a list of ``(partner_program, and_mask, or_mask)``
      blocks: the partner's (clean) function is evaluated inline and the
      result blended in — the ternary AND for machines in ``and_mask``
      (wired-AND bridging), the OR for ``or_mask`` machines;
    * ``self_and`` / ``self_or`` blend the gate's **own current value**
      (``self_ref``) into the result — the self-sticky encoding of
      slow-to-rise / slow-to-fall transition faults;
    * ``out_force`` forces the result words (output stuck-at).

    Every blend is the identity outside its mask, and each machine bit
    carries at most one fault, so the application order is immaterial.
    Temporaries are introduced per operator, so the generated code is
    linear in the program length (shared subterms are never
    re-expanded).
    """
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
                rl, rh = ref(arg)
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

    l, h = emit(program, pin_force)
    for partner_program, and_mask, or_mask in bridges or ():
        # Masked blend of the partner's driven value: per machine,
        # ternary AND for and_mask bits, ternary OR for or_mask bits,
        # identity elsewhere (the masks never share a bit).
        lb, hb = emit(partner_program, None)
        a, b = fresh()
        lines.append(
            f"{indent}{a} = (({l})|({lb}&{and_mask}))"
            f"&(({lb})|{ones & ~or_mask}); "
            f"{b} = (({h})&(({hb})|{ones & ~and_mask}))"
            f"|(({hb})&{or_mask})"
        )
        l, h = a, b
    if self_and or self_or:
        sl, sh = self_ref
        a, b = fresh()
        lines.append(
            f"{indent}{a} = (({l})|({sl}&{self_and}))"
            f"&({sl}|{ones & ~self_or}); "
            f"{b} = (({h})&({sh}|{ones & ~self_and}))"
            f"|({sh}&{self_or})"
        )
        l, h = a, b
    if out_force is not None:
        f0, f1 = out_force
        a, b = fresh()
        lines.append(
            f"{indent}{a} = ({l}|{f0})&{ones & ~f1}; "
            f"{b} = ({h}|{f1})&{ones & ~f0}"
        )
        l, h = a, b
    return l, h


def _codegen_ternary(
    name: str,
    program: Program,
    ones: int,
    pin_force: Optional[Dict[int, Tuple[int, int]]] = None,
    out_force: Optional[Tuple[int, int]] = None,
    gate_index: Optional[int] = None,
    self_and: int = 0,
    self_or: int = 0,
    bridges: Optional[List[Tuple[Program, int, int]]] = None,
) -> str:
    """Source of one compiled gate evaluator ``name(L, H) -> (l, h)``
    reading per-signal word lists; see :func:`_emit_eval` for the
    overlay-mask vocabulary."""
    lines = [f"def {name}(L, H):"]
    l, h = _emit_eval(
        lines,
        "    ",
        "",
        program,
        ones,
        ref=lambda arg: (f"L[{arg}]", f"H[{arg}]"),
        pin_force=pin_force,
        out_force=out_force,
        self_ref=(f"L[{gate_index}]", f"H[{gate_index}]"),
        self_and=self_and,
        self_or=self_or,
        bridges=bridges,
    )
    lines.append(f"    return {l}, {h}")
    return "\n".join(lines)


def _codegen_excited(circuit: Circuit) -> str:
    """Source of ``excited(state) -> [gate signal indices]``.

    One straight-line block per gate, binary domain, no per-gate call
    overhead — the hot inner loop of the exact settling explorer."""
    lines = ["def excited(state):", "    ex = []", "    ap = ex.append"]
    for gate in circuit.gates:
        stack: List[str] = []
        tmp = 0
        body: List[str] = []
        for op, arg in gate.program:
            if op == OP_VAR:
                stack.append(f"((state>>{arg})&1)")
            elif op == OP_NOT:
                a = f"b{gate.index}_{tmp}"
                tmp += 1
                body.append(f"    {a} = {stack.pop()}^1")
                stack.append(a)
            elif op in (OP_AND, OP_OR, OP_XOR):
                sym = {OP_AND: "&", OP_OR: "|", OP_XOR: "^"}[op]
                x = stack.pop()
                y = stack.pop()
                a = f"b{gate.index}_{tmp}"
                tmp += 1
                body.append(f"    {a} = {y}{sym}{x}")
                stack.append(a)
            else:  # OP_CONST
                stack.append(str(arg))
        body.append(
            f"    if {stack.pop()} != ((state>>{gate.index})&1): ap({gate.index})"
        )
        lines.extend(body)
    lines.append("    return ex")
    return "\n".join(lines)


def _exec(src: str, filename: str) -> Dict[str, object]:
    ns: Dict[str, object] = {}
    exec(compile(src, filename, "exec"), ns)  # noqa: S102 - trusted codegen
    return ns


# ---------------------------------------------------------------------------
# Per-circuit compilation cache
# ---------------------------------------------------------------------------


class CompiledCircuit:
    """Everything the engine precomputes once per circuit."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.n_inputs = circuit.n_inputs
        self.n_signals = circuit.n_signals
        self.gate_index: Tuple[int, ...] = tuple(g.index for g in circuit.gates)
        self.fanout: Tuple[Tuple[int, ...], ...] = circuit.fanouts()
        self.order: Tuple[int, ...] = circuit.levels()
        #: positions of gates whose program embeds a constant — their
        #: compiled form bakes the all-ones word and must be regenerated
        #: for other widths.
        self.const_positions: Tuple[int, ...] = tuple(
            pos
            for pos, g in enumerate(circuit.gates)
            if any(op == OP_CONST for op, _ in g.program)
        )
        self._clean_fns: Optional[Tuple[GateFn, ...]] = None
        exc_ns = _exec(_codegen_excited(circuit), f"<excited:{circuit.name}>")
        #: ``excited(state) -> [gate indices]`` in the binary domain.
        self.excited_signals: Callable[[int], List[int]] = exc_ns["excited"]
        self._engines: "OrderedDict[Tuple[Tuple[Fault, ...], int], SimEngine]" = (
            OrderedDict()
        )

    @property
    def clean_fns(self) -> Tuple[GateFn, ...]:
        """Clean width-1 evaluators, one per gate position, compiled on
        first use.  The tuple is published by one assignment, so two
        threads racing here at worst compile it twice."""
        fns = self._clean_fns
        if fns is None:
            gates = self.circuit.gates
            src = "\n".join(
                _codegen_ternary(f"g{pos}", g.program, 1)
                for pos, g in enumerate(gates)
            )
            ns = _exec(src, f"<engine:{self.circuit.name}>")
            fns = tuple(ns[f"g{pos}"] for pos in range(len(gates)))
            self._clean_fns = fns
        return fns


def compiled(circuit: Circuit) -> CompiledCircuit:
    """The (cached) compiled form of ``circuit``."""
    cc = getattr(circuit, "_compiled", None)
    if cc is None:
        cc = CompiledCircuit(circuit)
        circuit._compiled = cc
    return cc


#: Engine-cache capacity per circuit.  Reuse-heavy callers (per-fault
#: ternary machines iterating a universe, the auditor rebuilding the
#: same-universe batch per test) fit comfortably; one-shot overlays with
#: ever-changing fault subsets (the ATPG loop's shrinking fault-sim
#: batches) just cycle through and evict, bounding memory.
_ENGINE_CACHE_SIZE = 128


def engine_for(
    circuit: Circuit,
    faults: Sequence[Fault] = (),
    width: Optional[int] = None,
) -> "SimEngine":
    """The (cached) engine for ``circuit`` with a fault overlay.

    ``width`` defaults to ``max(1, len(faults))``: a scalar good-machine
    engine for no faults, one machine per fault otherwise.  Pass
    ``width=0`` explicitly for a degenerate empty batch.  The per-circuit
    cache is LRU-bounded to ``_ENGINE_CACHE_SIZE`` overlays.
    """
    cc = compiled(circuit)
    faults = tuple(faults)
    if width is None:
        width = max(1, len(faults))
    key = (faults, width)
    engine = cc._engines.get(key)
    if engine is None:
        engine = SimEngine(circuit, faults, width)
        cc._engines[key] = engine
        if len(cc._engines) > _ENGINE_CACHE_SIZE:
            cc._engines.popitem(last=False)
    else:
        cc._engines.move_to_end(key)
    return engine


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class SimEngine:
    """One circuit + one fault overlay, at one word width.

    State is a pair of per-signal word lists ``(L, H)``: bit *j* of
    ``L[i]`` means "signal *i* of machine *j* can be 0", likewise ``H``
    for "can be 1" — the exact encoding of the seed simulators.  All
    methods mutate the lists in place.
    """

    def __init__(self, circuit: Circuit, faults: Sequence[Fault] = (), width: int = 1):
        self.circuit = circuit
        self.cc = cc = compiled(circuit)
        self.faults = tuple(faults)
        self.width = width
        self.ones = mask(width)
        # Overlay mask tables, filled per fault (one machine bit each).
        # Registered fault models write these through their
        # ``engine_overlay`` hook; the two stuck-at kinds are inlined as
        # the historical fast path.
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
            if fault.kind == "input":
                per_gate = self.pin_force.setdefault(fault.gate, {})
                f0, f1 = per_gate.get(fault.site, (0, 0))
                if fault.value == 0:
                    f0 |= 1 << j
                else:
                    f1 |= 1 << j
                per_gate[fault.site] = (f0, f1)
            elif fault.kind == "output":
                f0, f1 = self.out_force.get(fault.gate, (0, 0))
                if fault.value == 0:
                    f0 |= 1 << j
                else:
                    f1 |= 1 << j
                self.out_force[fault.gate] = (f0, f1)
            else:
                from repro.faultmodels import model_for_kind

                try:
                    model = model_for_kind(fault.kind)
                except ReproError as exc:
                    raise SimulationError(str(exc)) from None
                model.engine_overlay(self, fault, j)
        self._fns: Optional[Tuple[GateFn, ...]] = None
        pos_of = {gi: pos for pos, gi in enumerate(cc.gate_index)}
        gate_at = {g.index: g for g in circuit.gates}
        # Overlay-induced extra dependencies: a self-sticky gate reads
        # its own output, a bridged gate reads its partner's support.
        # The worklist must re-examine those gates when the new sources
        # change, so such engines carry a widened per-engine fanout.
        extra: Dict[int, set] = {}
        for gi in set(self.self_and) | set(self.self_or):
            extra.setdefault(gi, set()).add(pos_of[gi])
        for gi, partners in self.bridges.items():
            for partner in partners:
                for src_sig in gate_at[partner].support:
                    extra.setdefault(src_sig, set()).add(pos_of[gi])
        if extra:
            fanout = list(cc.fanout)
            for sig, positions in extra.items():
                fanout[sig] = tuple(sorted(set(fanout[sig]) | positions))
            self.fanout: Tuple[Tuple[int, ...], ...] = tuple(fanout)
        else:
            self.fanout = cc.fanout
        # Scratch per-position eval caches, reused across settle calls.
        n_gates = len(circuit.gates)
        self._evl = [0] * n_gates
        self._evh = [0] * n_gates

    @property
    def fns(self) -> Tuple[GateFn, ...]:
        """Per-gate evaluators, compiled on first use (the first
        :meth:`settle`): the circuit's clean width-1 functions wherever
        possible, regenerated only for overlay-touched and const-bearing
        gates.  Published by one assignment, like
        :attr:`CompiledCircuit.clean_fns`."""
        fns = self._fns
        if fns is None:
            fns = self._fns = self._compile_fns()
        return fns

    def _compile_fns(self) -> Tuple[GateFn, ...]:
        cc = self.cc
        gates = self.circuit.gates
        fns = list(cc.clean_fns)
        regen = set(cc.const_positions) if self.ones != 1 else set()
        pos_of = {gi: pos for pos, gi in enumerate(cc.gate_index)}
        gate_at = {g.index: g for g in gates}
        for gi in (
            set(self.pin_force)
            | set(self.out_force)
            | set(self.self_and)
            | set(self.self_or)
            | set(self.bridges)
        ):
            regen.add(pos_of[gi])
        if regen:
            src = "\n".join(
                _codegen_ternary(
                    f"g{pos}",
                    gates[pos].program,
                    self.ones,
                    self.pin_force.get(cc.gate_index[pos]),
                    self.out_force.get(cc.gate_index[pos]),
                    gate_index=cc.gate_index[pos],
                    self_and=self.self_and.get(cc.gate_index[pos], 0),
                    self_or=self.self_or.get(cc.gate_index[pos], 0),
                    bridges=[
                        (gate_at[partner].program, ma, mo)
                        for partner, (ma, mo) in sorted(
                            self.bridges.get(cc.gate_index[pos], {}).items()
                        )
                    ],
                )
                for pos in sorted(regen)
            )
            ns = _exec(
                src, f"<engine:{self.circuit.name}:{len(self.faults)}f>"
            )
            for pos in regen:
                fns[pos] = ns[f"g{pos}"]
        return tuple(fns)

    # -- the one settle loop --------------------------------------------

    def settle(
        self,
        L: List[int],
        H: List[int],
        dirty: Optional[Sequence[int]] = None,
    ) -> None:
        """Algorithm A then Algorithm B, event-driven, in place.

        ``dirty`` lists the signal indices whose words were rewritten
        since the state last settled **under this same engine** — then
        only their transitive fanout is re-examined.  Pass None (the
        default) for arbitrary states: every gate is seeded.
        """
        cc = self.cc
        fns = self.fns
        fanout = self.fanout  # cc.fanout unless an overlay widened it
        gate_index = cc.gate_index
        n_gates = len(gate_index)
        evl = self._evl
        evh = self._evh
        if dirty is None:
            seeds = cc.order
            for pos in range(n_gates):
                gi = gate_index[pos]
                evl[pos] = L[gi]
                evh[pos] = H[gi]
        else:
            seen = set()
            seeds = []
            for s in dirty:
                for pos in fanout[s]:
                    if pos not in seen:
                        seen.add(pos)
                        seeds.append(pos)
            seeds.sort()
            for pos in seeds:
                gi = gate_index[pos]
                evl[pos] = L[gi]
                evh[pos] = H[gi]
        if not seeds and dirty is not None:
            return
        changes_cap = 2 * n_gates * max(1, self.width) + 4

        # Algorithm A: value <- lub(value, eval), to the least fixpoint.
        pending = deque(seeds)
        inq = bytearray(n_gates)
        ever = bytearray(n_gates)
        touched = list(seeds)
        for pos in seeds:
            inq[pos] = 1
            ever[pos] = 1
        changes = 0
        while pending:
            pos = pending.popleft()
            inq[pos] = 0
            el, eh = fns[pos](L, H)
            evl[pos] = el
            evh[pos] = eh
            gi = gate_index[pos]
            nl = L[gi] | el
            nh = H[gi] | eh
            if nl != L[gi] or nh != H[gi]:
                changes += 1
                if changes > changes_cap:
                    raise SimulationError(
                        "Algorithm A failed to converge (internal bug)"
                    )
                L[gi] = nl
                H[gi] = nh
                for q in fanout[gi]:
                    if not inq[q]:
                        inq[q] = 1
                        pending.append(q)
                        if not ever[q]:
                            ever[q] = 1
                            touched.append(q)

        # Algorithm B: value <- eval, monotone decreasing to the greatest
        # fixpoint below the Algorithm A result.  Seeded from the cached
        # evaluations of every gate phase A visited: a gate whose eval
        # already equals its value — in particular any gate untouched by
        # phase A when the caller started from a settled state — cannot
        # move until a fan-in does.
        touched.sort()
        pending = deque(
            pos
            for pos in touched
            if evl[pos] != L[gate_index[pos]] or evh[pos] != H[gate_index[pos]]
        )
        for pos in pending:
            inq[pos] = 1
        changes = 0
        while pending:
            pos = pending.popleft()
            inq[pos] = 0
            el, eh = fns[pos](L, H)
            gi = gate_index[pos]
            if el != L[gi] or eh != H[gi]:
                changes += 1
                if changes > changes_cap:
                    raise SimulationError(
                        "Algorithm B failed to converge (internal bug)"
                    )
                L[gi] = el
                H[gi] = eh
                for q in fanout[gi]:
                    if not inq[q]:
                        inq[q] = 1
                        pending.append(q)

    # -- convenience entry points ---------------------------------------

    def apply_pattern(self, L: List[int], H: List[int], pattern: int) -> None:
        """One synchronous test cycle on a settled state: drive every
        input to its definite pattern bit and settle the fanout of the
        inputs that actually changed."""
        ones = self.ones
        dirty = []
        for i in range(self.cc.n_inputs):
            if (pattern >> i) & 1:
                nl, nh = 0, ones
            else:
                nl, nh = ones, 0
            if L[i] != nl or H[i] != nh:
                L[i] = nl
                H[i] = nh
                dirty.append(i)
        self.settle(L, H, dirty)

    def broadcast(self, state: int) -> Tuple[List[int], List[int]]:
        """Per-signal word lists replicating a binary state across all
        machines of this engine's width."""
        ones = self.ones
        L = [(0 if (state >> i) & 1 else ones) for i in range(self.cc.n_signals)]
        H = [(ones if (state >> i) & 1 else 0) for i in range(self.cc.n_signals)]
        return L, H
