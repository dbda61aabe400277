"""Auto-shrinking: reduce a failing scenario to a minimal failing spec.

Greedy first-improvement delta debugging over two substrates:

* **spec level** (:func:`shrink_spec`) — structural moves on the
  generator IR: drop a par/choice/mirror decoration, drop a choice
  branch, shorten a response chain, shorten the ring once the spec is
  undecorated, and fall back from two-level to complex synthesis.
  Every move strictly decreases a size measure, so the loop
  terminates; the result is 1-minimal — no single remaining move
  keeps the failure alive.

* **netlist level** (:func:`shrink_netlist_text`) — circuit surgery on
  canonical ``.net`` text: drop a gate or primary input (readers see
  the dropped signal's reset value as a constant), or replace a gate's
  expression with one of its own subexpressions.

``fails`` predicates must return True iff the candidate still exhibits
the failure; raise-free — a candidate that crashes the predicate
should be reported as False (not failing), which the driver's
predicate does.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator, List, Optional, Tuple

from repro.circuit.expr import And, Const, Expr, Not, Or, Var, Xor
from repro.circuit.netlist import Circuit
from repro.circuit.parser import netlist_to_text, parse_netlist

from fuzzer.generator import (
    ChoiceSpec,
    Scenario,
    StgSpec,
    spec_to_stg_text,
)

__all__ = ["shrink_netlist_text", "shrink_scenario", "shrink_spec"]


# -- spec-level moves ---------------------------------------------------


def _used_signals(spec: StgSpec) -> Tuple[str, ...]:
    used = list(spec.ring)
    for choice in spec.choices:
        used.extend(choice.inputs)
        for chain in choice.responses:
            used.extend(chain)
        used.append(choice.merge)
    return tuple(used)


def _normalize(spec: StgSpec) -> StgSpec:
    """Drop kind rows for signals no longer referenced anywhere."""
    used = set(_used_signals(spec))
    return replace(
        spec, kinds=tuple((s, k) for s, k in spec.kinds if s in used)
    )


def _spec_moves(spec: StgSpec) -> Iterator[StgSpec]:
    """Candidate one-step reductions, cheapest-win order."""
    for i in range(len(spec.choices)):
        yield replace(spec, choices=spec.choices[:i] + spec.choices[i + 1:])
    for i in range(len(spec.pars)):
        yield replace(spec, pars=spec.pars[:i] + spec.pars[i + 1:])
    for i in range(len(spec.mirrors)):
        yield replace(spec, mirrors=spec.mirrors[:i] + spec.mirrors[i + 1:])
    for ci, choice in enumerate(spec.choices):
        if len(choice.inputs) > 2:
            for b in range(len(choice.inputs)):
                smaller = ChoiceSpec(
                    choice.pos,
                    choice.inputs[:b] + choice.inputs[b + 1:],
                    choice.responses[:b] + choice.responses[b + 1:],
                    choice.merge,
                )
                yield replace(
                    spec,
                    choices=spec.choices[:ci] + (smaller,) + spec.choices[ci + 1:],
                )
        for b, chain in enumerate(choice.responses):
            if chain:
                shorter = ChoiceSpec(
                    choice.pos,
                    choice.inputs,
                    choice.responses[:b] + (chain[:-1],) + choice.responses[b + 1:],
                    choice.merge,
                )
                yield replace(
                    spec,
                    choices=spec.choices[:ci] + (shorter,) + spec.choices[ci + 1:],
                )
    if (
        len(spec.ring) > 2
        and not spec.pars
        and not spec.choices
        and not spec.mirrors
    ):
        yield replace(spec, ring=spec.ring[:-1])
    if spec.style != "complex":
        yield replace(spec, style="complex")


def shrink_spec(
    spec: StgSpec, fails: Callable[[StgSpec], bool]
) -> StgSpec:
    """Greedily minimize ``spec`` while ``fails`` stays True.

    ``fails`` receives normalized candidate specs.  The input spec is
    assumed failing; the result is 1-minimal over the move set.
    """
    current = _normalize(spec)
    improved = True
    while improved:
        improved = False
        for candidate in _spec_moves(current):
            candidate = _normalize(candidate)
            if fails(candidate):
                current = candidate
                improved = True
                break
    return current


# -- netlist-level moves ------------------------------------------------


def _subexprs(expr: Expr) -> List[Expr]:
    if isinstance(expr, Not):
        return [expr.arg]
    if isinstance(expr, (And, Or)):
        out = list(expr.args)
        if len(expr.args) > 2:  # also try dropping one operand
            for i in range(len(expr.args)):
                rest = expr.args[:i] + expr.args[i + 1:]
                out.append(rest[0] if len(rest) == 1 else type(expr)(rest))
        return out
    if isinstance(expr, Xor):
        return [expr.a, expr.b]
    return []


def _replace_var(expr: Expr, name: str, value: Expr) -> Expr:
    if isinstance(expr, Var):
        return value if expr.name == name else expr
    if isinstance(expr, Not):
        return Not(_replace_var(expr.arg, name, value))
    if isinstance(expr, And):
        return And(tuple(_replace_var(a, name, value) for a in expr.args))
    if isinstance(expr, Or):
        return Or(tuple(_replace_var(a, name, value) for a in expr.args))
    if isinstance(expr, Xor):
        return Xor(
            _replace_var(expr.a, name, value), _replace_var(expr.b, name, value)
        )
    return expr


def _emit(
    circuit: Circuit,
    *,
    drop: Optional[str] = None,
    expr_override: Optional[Tuple[str, Expr]] = None,
) -> Optional[str]:
    """Re-emit ``circuit`` minus ``drop`` (readers get its reset value
    as a constant) and/or with one gate's expression replaced."""
    dropped_const: Optional[Expr] = None
    if drop is not None:
        if circuit.reset_state is None:
            dropped_const = Const(0)
        else:
            dropped_const = Const((circuit.reset_state >> circuit.index(drop)) & 1)
    out = Circuit(circuit.name)
    for name in circuit.input_names:
        if name != drop:
            out.add_input(name)
    n_gates = 0
    for gate in circuit.gates:
        if gate.name == drop:
            continue
        expr = gate.expr
        if expr_override is not None and gate.name == expr_override[0]:
            expr = expr_override[1]
        if drop is not None:
            expr = _replace_var(expr, drop, dropped_const)
        out.add_gate(gate.name, expr=expr)
        n_gates += 1
    if n_gates == 0:
        return None
    outputs = [n for n in circuit.output_names if n != drop]
    if not outputs:
        return None  # a circuit with nothing observable is not a scenario
    for name in outputs:
        out.mark_output(name)
    if circuit.reset_state is not None:
        out.set_reset(
            {
                s.name: (circuit.reset_state >> s.index) & 1
                for s in circuit.signals
                if s.name != drop
            }
        )
    out.set_k(circuit.k)
    return netlist_to_text(out.finalize())


def _netlist_candidates(text: str) -> Iterator[str]:
    circuit = parse_netlist(text, filename="<shrink>")
    for gate in circuit.gates:
        cand = _emit(circuit, drop=gate.name)
        if cand is not None:
            yield cand
    if len(circuit.input_names) > 1:
        for name in circuit.input_names:
            cand = _emit(circuit, drop=name)
            if cand is not None:
                yield cand
    for gate in circuit.gates:
        for sub in _subexprs(gate.expr):
            cand = _emit(circuit, expr_override=(gate.name, sub))
            if cand is not None:
                yield cand


def shrink_netlist_text(text: str, fails: Callable[[str], bool]) -> str:
    """Greedily minimize canonical ``.net`` text while ``fails`` holds."""
    current = netlist_to_text(parse_netlist(text, filename="<shrink>"))
    improved = True
    while improved:
        improved = False
        for candidate in _netlist_candidates(current):
            if candidate != current and fails(candidate):
                current = candidate
                improved = True
                break
    return current


# -- scenario dispatch --------------------------------------------------


def shrink_scenario(
    scenario: Scenario, fails: Callable[[Scenario], bool]
) -> Scenario:
    """Minimal failing scenario, same seed and kind as the input.

    STG scenarios carrying their generator IR shrink structurally;
    raw netlists (and corpus replays without an IR) shrink at the
    netlist level.
    """
    if scenario.kind == "stg" and scenario.spec is not None:

        def spec_fails(spec: StgSpec) -> bool:
            return fails(
                Scenario(
                    scenario.seed,
                    "stg",
                    spec_to_stg_text(spec),
                    style=spec.style,
                    spec=spec,
                )
            )

        best = shrink_spec(scenario.spec, spec_fails)
        return Scenario(
            scenario.seed,
            "stg",
            spec_to_stg_text(best),
            style=best.style,
            spec=best,
            rejections=scenario.rejections,
        )

    if scenario.kind != "netlist":
        return scenario  # an STG replay without its IR cannot shrink

    def text_fails(text: str) -> bool:
        return fails(replace_text(scenario, text))

    best_text = shrink_netlist_text(scenario.text, text_fails)
    return replace_text(scenario, best_text)


def replace_text(scenario: Scenario, text: str) -> Scenario:
    """A copy of ``scenario`` carrying different source text."""
    return Scenario(
        scenario.seed,
        scenario.kind,
        text,
        style=scenario.style,
        spec=None,
        rejections=scenario.rejections,
    )
