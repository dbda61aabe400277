"""Parser for the textual ``.g`` (astg) STG format.

Supported directives::

    .model NAME            # optional
    .inputs a b ...
    .outputs c d ...
    .internal x ...        # CSC helper signals
    .graph                 # then one line per arc fan-out:
    a+ b+ c-               #   arcs a+ -> b+ and a+ -> c-
    p0 a+                  #   explicit place p0 -> a+
    b+ p0
    .marking { p0 <a+,b+> }
    .initial a=0 b=1 ...   # extension: initial signal values (else inferred)
    .end

Transition tokens end in ``+``/``-`` with an optional ``/n`` instance
suffix; anything else in ``.graph`` is an explicit place name.  Implicit
places in the marking use the astg ``<src,dst>`` syntax.  Dummy
transitions are not supported (they never occur in our benchmark set).
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.circuit.parser import read_source
from repro.errors import ParseError, StgError
from repro.stg.petrinet import Stg, StgBuilder

_MARK_TOKEN = re.compile(r"<[^<>]+>|[^\s<>]+")


def _marking_tokens(body: str) -> List[str]:
    """Tokenize a ``.marking`` body, rejecting unbalanced ``<``/``>``.

    ``_MARK_TOKEN`` alone would silently *drop* a stray angle bracket
    (``<a+,b+`` tokenizes as ``a+,b+``), turning a syntax error into a
    baffling unknown-place complaint downstream.  Any character the
    token regex does not cover is therefore a syntax error, reported
    with the whitespace-delimited chunk it sits in.
    """
    covered = bytearray(len(body))
    tokens: List[str] = []
    for m in _MARK_TOKEN.finditer(body):
        tokens.append(m.group())
        for i in range(*m.span()):
            covered[i] = 1
    for i, ch in enumerate(body):
        if ch.isspace() or covered[i]:
            continue
        start, end = i, i
        while start > 0 and not body[start - 1].isspace():
            start -= 1
        while end < len(body) and not body[end].isspace():
            end += 1
        raise StgError(f"unbalanced marking token {body[start:end]!r}")
    return tokens


def parse_stg(text: str, filename: str = "<string>") -> Stg:
    """Parse ``.g`` source text into a validated :class:`Stg`.

    Every error is a :class:`ParseError` naming ``filename``, and the
    line at fault when one is: checks made once the whole net is read
    (an undeclared signal, a transition with no input place, an unknown
    marked place) point back at the arc or ``.marking`` line."""
    builder = StgBuilder()
    in_graph = False
    saw_marking = False
    #: StgError.source -> the line that introduced it
    lines: Dict[Tuple[str, str], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        try:
            if head == ".model":
                builder.name = tokens[1] if len(tokens) > 1 else builder.name
            elif head in (".inputs", ".outputs", ".internal"):
                kind = {".inputs": "input", ".outputs": "output",
                        ".internal": "internal"}[head]
                for name in tokens[1:]:
                    builder.add_signal(name, kind)
            elif head == ".dummy":
                raise StgError("dummy transitions are not supported")
            elif head == ".graph":
                in_graph = True
            elif head == ".marking":
                body = line[len(".marking"):].strip()
                if not (body.startswith("{") and body.endswith("}")):
                    raise StgError(".marking expects { ... }")
                builder.set_marking(_marking_tokens(body[1:-1]))
                saw_marking = True
                lines["marking", ""] = lineno
            elif head == ".initial":
                values = {}
                for tok in tokens[1:]:
                    if "=" not in tok:
                        raise StgError(f"bad .initial assignment {tok!r}")
                    sig, val = tok.split("=", 1)
                    if val not in ("0", "1"):
                        raise StgError(f".initial value must be 0/1 in {tok!r}")
                    values[sig] = int(val)
                builder.set_initial_values(values)
            elif head == ".end":
                break
            elif head.startswith("."):
                raise StgError(f"unknown directive {head!r}")
            else:
                if not in_graph:
                    raise StgError(f"arc line before .graph: {line!r}")
                if len(tokens) < 2:
                    raise StgError(f"arc line needs a source and targets: {line!r}")
                for dst in tokens[1:]:
                    builder.add_arc(head, dst)
                    for token in (head, dst):
                        lines.setdefault(("transition", token), lineno)
        except StgError as exc:
            raise ParseError(str(exc), filename, lineno) from None
    if not saw_marking:
        raise ParseError("missing .marking", filename)
    try:
        return builder.build()
    except StgError as exc:
        raise ParseError(str(exc), filename, lines.get(exc.source, 0)) from None


def load_stg(path) -> Stg:
    """Parse a ``.g`` file from disk."""
    return parse_stg(read_source(path), filename=str(path))


def stg_to_text(stg: Stg) -> str:
    """Serialize an STG back to ``.g`` text (round-trip aid for tests)."""
    lines: List[str] = [f".model {stg.name}"]
    if stg.inputs:
        lines.append(".inputs " + " ".join(stg.inputs))
    if stg.outputs:
        lines.append(".outputs " + " ".join(stg.outputs))
    if stg.internal:
        lines.append(".internal " + " ".join(stg.internal))
    lines.append(".graph")
    # Emit arcs through places; implicit places print as bare arcs.
    implicit = re.compile(r"^<([^<>]+),([^<>]+)>$")
    for p, name in enumerate(stg.place_names):
        producers = [t.label for t in stg.transitions if p in stg.t_out_places[t.index]]
        consumers = [t.label for t in stg.transitions if p in stg.t_in_places[t.index]]
        if implicit.match(name) and len(producers) == 1 and len(consumers) == 1:
            lines.append(f"{producers[0]} {consumers[0]}")
        else:
            for src in producers:
                lines.append(f"{src} {name}")
            for dst in consumers:
                lines.append(f"{name} {dst}")
    marked = " ".join(stg.place_names[p] for p in sorted(stg.initial_marking))
    lines.append(".marking { " + marked + " }")
    if stg.initial_values is not None:
        parts = " ".join(f"{s}={v}" for s, v in sorted(stg.initial_values.items()))
        lines.append(".initial " + parts)
    lines.append(".end")
    return "\n".join(lines) + "\n"
