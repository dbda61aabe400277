"""Reader/writer for the textual ``.net`` netlist format.

The format is line-based; ``#`` starts a comment.  Directives::

    .model NAME
    .inputs A B ...
    .outputs y z ...
    .gate OUT GTYPE IN1 IN2 ...     # library gate (see gatelib)
    .expr OUT = EXPRESSION          # arbitrary gate function
    .reset A=0 B=0 a=0 ...          # full reset state (all signals)
    .k 24                           # test-cycle transition bound
    .end                            # optional

Example (the paper's figure 1(b) oscillator)::

    .model fig1b
    .inputs A
    .gate a BUF A
    .expr c = ~(a & d)
    .gate d BUF c
    .outputs d
    .reset A=0 a=0 c=1 d=1
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.circuit.expr import parse_expr
from repro.circuit.netlist import Circuit
from repro.errors import NetlistError, ParseError


def parse_netlist(text: str, filename: str = "<string>") -> Circuit:
    """Parse ``.net`` source text into a finalized :class:`Circuit`.

    Every error is a :class:`ParseError` naming ``filename``, and the
    line at fault when one is: checks made once the whole file is read
    (an undefined signal, an incomplete ``.reset``, an unknown output)
    point back at the gate, ``.reset`` or ``.outputs`` line."""
    pending: List[tuple] = []  # deferred (kind, payload, line)
    name = "circuit"
    inputs: List[Tuple[str, int]] = []
    outputs: List[Tuple[str, int]] = []
    reset = None
    k = None
    #: NetlistError.source -> the line that declared it
    lines: Dict[Tuple[str, str], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == ".model":
            if len(tokens) != 2:
                raise ParseError(".model expects one name", filename, lineno)
            name = tokens[1]
        elif head == ".inputs":
            inputs.extend((n, lineno) for n in tokens[1:])
        elif head == ".outputs":
            outputs.extend((n, lineno) for n in tokens[1:])
        elif head == ".gate":
            if len(tokens) < 3:
                raise ParseError(".gate expects OUT GTYPE [INPUTS...]", filename, lineno)
            pending.append(("gate", (tokens[1], tokens[2], tokens[3:]), lineno))
        elif head == ".expr":
            if "=" not in line:
                raise ParseError(".expr expects OUT = EXPRESSION", filename, lineno)
            lhs, rhs = line[len(".expr"):].split("=", 1)
            out = lhs.strip()
            if not out or len(out.split()) != 1:
                raise ParseError("bad .expr output name", filename, lineno)
            pending.append(("expr", (out, parse_expr(rhs, filename, lineno)), lineno))
        elif head == ".reset":
            reset = {}
            for tok in tokens[1:]:
                if "=" not in tok:
                    raise ParseError(f"bad reset assignment {tok!r}", filename, lineno)
                n, v = tok.split("=", 1)
                if v not in ("0", "1"):
                    raise ParseError(f"reset value must be 0/1 in {tok!r}", filename, lineno)
                reset[n] = int(v)
            lines["reset", ""] = lineno
        elif head == ".k":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ParseError(".k expects a positive integer", filename, lineno)
            k = (int(tokens[1]), lineno)
        elif head == ".end":
            break
        else:
            raise ParseError(f"unknown directive {head!r}", filename, lineno)

    circuit = Circuit(name)
    for n, lineno in inputs:
        _wrap(circuit.add_input, filename, lineno, n)
    for kind, payload, lineno in pending:
        lines.setdefault(("gate", payload[0]), lineno)
        if kind == "gate":
            out, gtype, ins = payload
            _wrap(circuit.add_gate, filename, lineno, out, gtype=gtype, inputs=ins)
        else:
            out, expr = payload
            _wrap(circuit.add_gate, filename, lineno, out, expr=expr)
    for n, lineno in outputs:
        lines.setdefault(("output", n), lineno)
        circuit.mark_output(n)
    if reset is not None:
        circuit.set_reset(reset)
    if k is not None:
        _wrap(circuit.set_k, filename, k[1], k[0])
    try:
        circuit.finalize()
    except NetlistError as exc:
        raise ParseError(str(exc), filename, lines.get(exc.source, 0)) from None
    return circuit


def _wrap(fn, filename, lineno, *args, **kwargs):
    """Convert NetlistError raised by construction into a ParseError with
    position information."""
    try:
        return fn(*args, **kwargs)
    except NetlistError as exc:
        raise ParseError(str(exc), filename, lineno) from None


def load_netlist(path) -> Circuit:
    """Parse a ``.net`` file from disk."""
    refuse_stg_file(path)
    return parse_netlist(read_source(path), filename=str(path))


def refuse_stg_file(path) -> None:
    """A ``.g`` path is an STG spec, not a netlist: refuse it by name
    instead of failing on its first STG directive."""
    if str(path).endswith(".g"):
        raise ParseError(
            "STG specs are accepted only as bundled benchmark names "
            "(see repro-atpg --list), not as files",
            str(path),
        )


def read_source(path) -> str:
    """The text of a source file; bytes that are not UTF-8 are a
    :class:`ParseError` at their line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"not UTF-8 text (byte {data[exc.start]:#04x})", str(path), line
        ) from None


def netlist_to_text(circuit: Circuit) -> str:
    """Serialize a finalized circuit back to ``.net`` text.

    Library gates round-trip as ``.gate`` lines when their type was
    recorded; everything else is written with ``.expr``.
    """
    lines = [f".model {circuit.name}"]
    if circuit.input_names:
        lines.append(".inputs " + " ".join(circuit.input_names))
    for gate in circuit.gates:
        if gate.gtype is not None:
            ins = " ".join(circuit.signal_name(i) for i in _gate_input_order(circuit, gate))
            lines.append(f".gate {gate.name} {gate.gtype} {ins}".rstrip())
        else:
            lines.append(f".expr {gate.name} = {gate.expr}")
    if circuit.output_names:
        lines.append(".outputs " + " ".join(circuit.output_names))
    if circuit.reset_state is not None:
        parts = [
            f"{s.name}={(circuit.reset_state >> s.index) & 1}" for s in circuit.signals
        ]
        lines.append(".reset " + " ".join(parts))
    lines.append(f".k {circuit.k}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def _gate_input_order(circuit: Circuit, gate) -> List[int]:
    """Original operand order for library gates: first-appearance order of
    variables in the expression, excluding the feedback self-reference."""
    order = []
    for name in gate.expr.vars():
        idx = circuit.index(name)
        if idx == gate.index and gate.gtype in ("C", "CELEM", "CELEMN", "SR"):
            continue
        if idx not in order:
            order.append(idx)
    return order
