"""Gate-level circuit model under the unbounded inertial gate-delay model.

This subpackage provides:

* :mod:`repro.circuit.expr` — boolean expression ASTs used as gate
  functions, with compiled evaluators (binary, ternary, word-parallel).
* :mod:`repro.circuit.gatelib` — a library of named gate types
  (``AND2``, ``CELEM``, ...) that expand to expressions.
* :mod:`repro.circuit.netlist` — the :class:`Circuit` container and
  packed-integer state representation.
* :mod:`repro.circuit.parser` — the textual ``.net`` format.
* :mod:`repro.circuit.faults` — input/output stuck-at fault universes.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.circuit.expr": (
        "Expr", "Var", "Const", "Not", "And", "Or", "Xor", "parse_expr",
    ),
    "repro.circuit.netlist": ("Circuit", "Gate", "Signal"),
    "repro.circuit.parser": ("parse_netlist", "netlist_to_text", "load_netlist"),
    "repro.circuit.faults": (
        "Fault", "input_fault_universe", "output_fault_universe", "fault_universe",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
