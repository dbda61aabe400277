"""Mutation operators keyed to the cohort-invalidation matrix.

Each operator takes canonical ``.net`` text and returns a
:class:`Mutation` — the mutated canonical text plus what the edit
*means* for the incremental layer (``docs/incremental.md``):

=============  ==========  ===========================================
operator       preserving  expected cohort / CSSG effect
=============  ==========  ===========================================
``rename``     yes         cones whose docs mention the old name get
                           new keys; the name-free CSSG fingerprint is
                           unchanged, so the CSSG cache still hits
``rewrite``    yes         double-negates one gate: same function, new
                           cone doc and new structural fingerprint —
                           that gate's cones and the CSSG cache miss,
                           the rest of the partition is reused
``splice``     no          inserts a fanout buffer: every cone that
                           contained the spliced consumer widens, and
                           the fault universe itself changes
``reset_shift``  no        moves the reset to another stable state
                           reachable from it (a state of its single-
                           input-change CSSG): reset bits live in every
                           cone doc, so all cohorts and the CSSG cache
                           are invalidated
=============  ==========  ===========================================

``preserving`` means the *good-circuit semantics* are untouched (the
CSSG is identical up to signal names); it does **not** mean the ATPG
payload is byte-identical — rewrites and splices change fault sites.

:func:`shift_marking` is the STG-level counterpart: it advances the
initial marking by firing one enabled transition (re-gate health after
applying it — the new start state may not be synthesizable).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.circuit.expr import And, Expr, Not, Or, Var, Xor
from repro.circuit.netlist import Circuit
from repro.circuit.parser import _gate_input_order, netlist_to_text, parse_netlist
from repro.errors import StateGraphError
from repro.sgraph.cssg import build_cssg
from repro.stg.parser import parse_stg

__all__ = [
    "MUTATION_OPS",
    "Mutation",
    "mutate_netlist",
    "shift_marking",
]


@dataclass(frozen=True)
class Mutation:
    op: str  #: one of :data:`MUTATION_OPS`
    preserving: bool  #: good-circuit semantics (CSSG) unchanged?
    target: str  #: the signal/gate the edit touched
    text: str  #: mutated canonical ``.net`` text
    detail: str = ""  #: e.g. the new name for a rename


def _subst(expr: Expr, mapping: Dict[str, str]) -> Expr:
    """Rename variables throughout an expression tree."""
    if isinstance(expr, Var):
        return Var(mapping.get(expr.name, expr.name))
    if isinstance(expr, Not):
        return Not(_subst(expr.arg, mapping))
    if isinstance(expr, And):
        return And(tuple(_subst(a, mapping) for a in expr.args))
    if isinstance(expr, Or):
        return Or(tuple(_subst(a, mapping) for a in expr.args))
    if isinstance(expr, Xor):
        return Xor(_subst(expr.a, mapping), _subst(expr.b, mapping))
    return expr  # Const


def _rebuild(
    circuit: Circuit,
    *,
    rename: Optional[Dict[str, str]] = None,
    expr_override: Optional[Dict[str, Expr]] = None,
    extra_gates: Optional[List[Tuple[str, str, str]]] = None,
    reset_extra: Optional[Dict[str, int]] = None,
    reset_bits: Optional[int] = None,
) -> Circuit:
    """Clone ``circuit`` with edits applied, preserving gate order.

    ``extra_gates`` are ``(after, name, src)`` buffer insertions;
    ``reset_bits`` replaces the reset outright, ``reset_extra`` only
    extends it (for the new buffers).
    """
    rename = rename or {}
    expr_override = expr_override or {}
    extras = {after: (name, src) for after, name, src in (extra_gates or [])}
    out = Circuit(circuit.name)
    for name in circuit.input_names:
        out.add_input(rename.get(name, name))
    for gate in circuit.gates:
        new_name = rename.get(gate.name, gate.name)
        if gate.name in expr_override:
            out.add_gate(new_name, expr=_subst(expr_override[gate.name], rename))
        elif gate.gtype is not None:
            ins = [
                rename.get(circuit.signal_name(i), circuit.signal_name(i))
                for i in _gate_input_order(circuit, gate)
            ]
            out.add_gate(new_name, gtype=gate.gtype, inputs=ins)
        else:
            out.add_gate(new_name, expr=_subst(gate.expr, rename))
        if gate.name in extras:
            buf, src = extras[gate.name]
            out.add_gate(buf, gtype="BUF", inputs=[rename.get(src, src)])
    for name in circuit.output_names:
        out.mark_output(rename.get(name, name))
    if reset_bits is not None:
        names = [s.name for s in circuit.signals]
        out.set_reset(
            {rename.get(n, n): (reset_bits >> i) & 1 for i, n in enumerate(names)}
        )
    elif circuit.reset_state is not None:
        reset = {
            rename.get(s.name, s.name): (circuit.reset_state >> s.index) & 1
            for s in circuit.signals
        }
        reset.update(reset_extra or {})
        out.set_reset(reset)
    out.set_k(circuit.k)
    return out.finalize()


def _fresh_name(circuit: Circuit, stem: str) -> str:
    taken = {s.name for s in circuit.signals}
    for i in range(len(taken) + 1):
        name = f"{stem}{i}"
        if name not in taken:
            return name
    raise AssertionError("unreachable")


def _op_rename(circuit: Circuit, rng: random.Random) -> Optional[Mutation]:
    """Rename one non-interface gate (inputs/outputs are the contract)."""
    interface = set(circuit.input_names) | set(circuit.output_names)
    candidates = [g.name for g in circuit.gates if g.name not in interface]
    if not candidates:
        return None
    old = rng.choice(candidates)
    new = _fresh_name(circuit, "fzren")
    mutated = _rebuild(circuit, rename={old: new})
    return Mutation("rename", True, old, netlist_to_text(mutated), detail=new)


def _op_rewrite(circuit: Circuit, rng: random.Random) -> Optional[Mutation]:
    """Double-negate one gate's function: same logic, new structure."""
    if not circuit.gates:
        return None
    gate = rng.choice(circuit.gates)
    mutated = _rebuild(circuit, expr_override={gate.name: Not(Not(gate.expr))})
    return Mutation("rewrite", True, gate.name, netlist_to_text(mutated))


def _op_splice(circuit: Circuit, rng: random.Random) -> Optional[Mutation]:
    """Split one fanout: route a consumer through a fresh buffer."""
    pairs = []
    for gate in circuit.gates:
        for src in gate.expr.vars():
            if src != gate.name:
                pairs.append((src, gate.name))
    if not pairs:
        return None
    src, consumer = rng.choice(sorted(pairs))
    buf = _fresh_name(circuit, "fzbuf")
    gate = next(g for g in circuit.gates if g.name == consumer)
    reset_extra = None
    if circuit.reset_state is not None:
        reset_extra = {buf: (circuit.reset_state >> circuit.index(src)) & 1}
    mutated = _rebuild(
        circuit,
        expr_override={consumer: _subst(gate.expr, {src: buf})},
        extra_gates=[(consumer, buf, src)],
        reset_extra=reset_extra,
    )
    return Mutation("splice", False, src, netlist_to_text(mutated), detail=consumer)


def _op_reset_shift(circuit: Circuit, rng: random.Random) -> Optional[Mutation]:
    """Move the reset to a different stable state reachable from it.

    The candidates are the states of the exact single-input-change CSSG,
    the graph the incremental oracle's ATPG runs build; None when the
    reset does not settle confluently (no CSSG)."""
    try:
        cssg = build_cssg(circuit, method="exact", max_input_changes=1)
    except StateGraphError:
        return None
    stable = [s for s in sorted(cssg.states) if s != circuit.reset_state]
    if not stable:
        return None
    pick = stable[rng.randrange(len(stable))]
    mutated = _rebuild(circuit, reset_bits=pick)
    return Mutation("reset_shift", False, f"{pick:b}", netlist_to_text(mutated))


_OPS: Dict[str, Callable[[Circuit, random.Random], Optional[Mutation]]] = {
    "rename": _op_rename,
    "rewrite": _op_rewrite,
    "splice": _op_splice,
    "reset_shift": _op_reset_shift,
}

MUTATION_OPS: Tuple[str, ...] = tuple(_OPS)


def mutate_netlist(text: str, op: str, rng: random.Random) -> Optional[Mutation]:
    """Apply ``op`` to canonical ``.net`` text; None when inapplicable.

    >>> import random
    >>> from repro.benchmarks_data import load_benchmark
    >>> from repro.circuit.parser import netlist_to_text
    >>> base = netlist_to_text(load_benchmark("dff"))
    >>> m = mutate_netlist(base, "rename", random.Random(0))
    >>> m.preserving and m.detail.startswith("fzren")
    True
    """
    if op not in _OPS:
        raise ValueError(f"unknown mutation op {op!r} (have {MUTATION_OPS})")
    circuit = parse_netlist(text, filename="<mutate>")
    return _OPS[op](circuit, rng)


def shift_marking(stg_text: str, rng: random.Random) -> Optional[str]:
    """Advance the initial marking by firing one enabled transition.

    Returns new ``.g`` text with ``.marking`` and ``.initial`` rewritten
    (or None when nothing is enabled).  The result is a reachable
    marking of the same net, but the shifted start state is not
    guaranteed synthesizable — re-gate health before using it.
    """
    stg = parse_stg(stg_text, filename="<shift>")
    enabled = stg.enabled(stg.initial_marking)
    if not enabled:
        return None
    t = enabled[rng.randrange(len(enabled))]
    after = stg.fire(stg.initial_marking, t)
    values = dict(stg.initial_values or {s: 0 for s in stg.signals})
    values[t.signal] = 1 if t.direction > 0 else 0
    marking_tokens = sorted(stg.place_names[p] for p in after)
    out_lines = []
    for line in stg_text.splitlines():
        stripped = line.strip()
        if stripped.startswith(".marking"):
            out_lines.append(".marking { " + " ".join(marking_tokens) + " }")
        elif stripped.startswith(".initial"):
            out_lines.append(
                ".initial " + " ".join(f"{s}={values[s]}" for s in stg.signals)
            )
        else:
            out_lines.append(line)
    return "\n".join(out_lines) + ("\n" if stg_text.endswith("\n") else "")
