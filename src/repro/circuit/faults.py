"""The :class:`Fault` record and registry-backed universe entry points.

A fault is four ints/strings — ``(kind, gate, site, value)`` — whose
*meaning* is owned by the fault model registered for ``kind`` in
:mod:`repro.faultmodels`:

* ``input`` stuck-at — ``gate`` is the affected gate's output signal,
  ``site`` the source signal feeding the stuck pin, ``value`` the stuck
  constant (paper §1, §5, §6);
* ``output`` stuck-at — ``gate == site`` is the stuck signal;
* ``bridging`` — ``gate < site`` are the two shorted nets, ``value``
  selects wired-AND (0) / wired-OR (1);
* ``transition`` — ``gate == site`` is the slow signal, ``value`` the
  transition's destination (1 = slow-to-rise, 0 = slow-to-fall).

This module stays the stable import surface the rest of the package
(and external callers) use: :func:`fault_universe` dispatches through
the registry and raises :class:`~repro.errors.ReproError` naming the
registered models for unknown names; ``input_fault_universe`` /
``output_fault_universe`` and :func:`materialize_fault` keep their
historical signatures.  The model *semantics* live in
:mod:`repro.faultmodels` (imported lazily, so ``repro.circuit`` keeps
loading first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.circuit.netlist import Circuit


@dataclass(frozen=True, order=True)
class Fault:
    """One fault record; see the module docstring for the per-kind
    field meaning.  Hashable and totally ordered, so fault sets,
    ledgers and cache keys are deterministic."""

    kind: str
    gate: int
    site: int
    value: int

    def describe(self, circuit: Circuit) -> str:
        """Human-readable fault name, e.g. ``y<-a SA0``, ``y SA1``,
        ``a~b wired-AND`` or ``y STR``."""
        from repro.faultmodels import model_for_kind

        return model_for_kind(self.kind).describe(circuit, self)

    def to_json(self) -> List:
        """Compact JSON form: ``[kind, gate, site, value]``."""
        return [self.kind, self.gate, self.site, self.value]

    @staticmethod
    def from_json(data: Sequence) -> "Fault":
        kind, gate, site, value = data
        return Fault(str(kind), int(gate), int(site), int(value))


def input_fault_universe(circuit: Circuit) -> List[Fault]:
    """All single input stuck-at faults: two per gate input pin."""
    from repro.faultmodels import INPUT_STUCK_AT

    return INPUT_STUCK_AT.universe(circuit)


def output_fault_universe(circuit: Circuit) -> List[Fault]:
    """All single output stuck-at faults: two per gate output."""
    from repro.faultmodels import OUTPUT_STUCK_AT

    return OUTPUT_STUCK_AT.universe(circuit)


def fault_universe(circuit: Circuit, model: str) -> List[Fault]:
    """The universe of the registered fault model named ``model``.

    Raises :class:`~repro.errors.ReproError` listing the registered
    models for an unknown name — the CLIs surface it as exit status 1.

    >>> from repro.benchmarks_data import load_benchmark
    >>> c = load_benchmark("dff")
    >>> {m: len(fault_universe(c, m))
    ...  for m in ("input", "output", "bridging", "transition")}
    {'input': 10, 'output': 6, 'bridging': 6, 'transition': 6}
    """
    from repro.faultmodels import get_model

    return get_model(model).universe(circuit)


def substitute_signal(expr, name: str, value: int):
    """Replace every occurrence of Var(name) in ``expr`` by Const(value)
    — the input stuck-at cofactor, also useful for model authors."""
    from repro.circuit.expr import And, Const, Not, Or, Var, Xor

    if isinstance(expr, Var):
        return Const(value) if expr.name == name else expr
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Not):
        return Not(substitute_signal(expr.arg, name, value))
    if isinstance(expr, And):
        return And(tuple(substitute_signal(a, name, value) for a in expr.args))
    if isinstance(expr, Or):
        return Or(tuple(substitute_signal(a, name, value) for a in expr.args))
    if isinstance(expr, Xor):
        return Xor(
            substitute_signal(expr.a, name, value),
            substitute_signal(expr.b, name, value),
        )
    raise TypeError(f"unknown expression node {expr!r}")


def materialize_fault(circuit: Circuit, fault: Fault) -> Circuit:
    """Build the faulty circuit as a real netlist, dispatching to the
    fault's model.  The signal order, outputs and ``k`` are preserved,
    so states of the two circuits are directly comparable — this
    enables *exact* faulty-machine simulation with the same settling
    explorer used for the good circuit, avoiding the conservatism of
    ternary simulation."""
    from repro.faultmodels import model_for_kind

    return model_for_kind(fault.kind).materialize(circuit, fault)
