"""Partial scan insertion (paper §6/§7).

The paper suggests assisting low-coverage circuits with partial scan.
In the synchronous abstraction the cheapest useful scan primitive is a
*scan input*: pick an internal signal, cut its gate away from the net and
drive the net from a new primary input instead, while exposing the old
gate function on a new observable output.  Controllability of the cut
net becomes total (the tester drives it), and the replaced gate's
behaviour stays observable — the classic scan decomposition applied to
one feedback wire.

``insert_scan_inputs`` performs the surgery and returns a new circuit;
``rank_scan_candidates`` orders internal signals by how many undetected
fault sites they touch (a simple but effective selection heuristic).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro._bits import bit
from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.errors import NetlistError

SCAN_OUT_SUFFIX = "$obs"


def insert_scan_inputs(circuit: Circuit, signals: Sequence[str]) -> Circuit:
    """Return a copy of ``circuit`` with each named internal signal cut.

    For a cut signal ``z``: the net ``z`` becomes the new primary input
    ``z`` (driven by the tester), and the old gate function is re-emitted
    as an observable gate ``z$obs``.  Primary inputs and unknown names
    are rejected.
    """
    cut = list(signals)
    by_name = {g.name: g for g in circuit.gates}
    for name in cut:
        if name not in by_name:
            raise NetlistError(
                f"cannot scan {name!r}: not a gate output in {circuit.name}"
            )
    scanned = Circuit(f"{circuit.name}-scan")
    for name in circuit.input_names:
        scanned.add_input(name)
    for name in cut:
        scanned.add_input(name)
    for gate in circuit.gates:
        if gate.name in cut:
            scanned.add_gate(gate.name + SCAN_OUT_SUFFIX, expr=gate.expr)
        else:
            scanned.add_gate(gate.name, expr=gate.expr)
    for name in circuit.output_names:
        scanned.mark_output(name)
    for name in cut:
        scanned.mark_output(name + SCAN_OUT_SUFFIX)
    if circuit.reset_state is not None:
        reset: Dict[str, int] = {}
        for s in circuit.signals:
            reset[s.name] = bit(circuit.reset_state, s.index)
        for name in cut:
            reset[name + SCAN_OUT_SUFFIX] = reset[name]
        scanned.set_reset(reset)
    scanned.set_k(circuit.k)
    return scanned.finalize()


def rank_scan_candidates(
    circuit: Circuit, undetected: Iterable[Fault]
) -> List[Tuple[str, int]]:
    """Internal signals ranked by undetected-fault adjacency.

    A fault is adjacent to signal ``z`` when its site or its gate is
    ``z``; cutting ``z`` makes those faults directly controllable or
    observable.  Gates whose support is entirely primary inputs (e.g.
    input buffers) are excluded — the tester already controls them
    through the inputs, so cutting buys nothing.  Returns (signal name,
    score) pairs, best first.
    """
    score: Dict[str, int] = {}
    input_count = circuit.n_inputs
    trivially_controllable = {
        g.name
        for g in circuit.gates
        if all(s < input_count for s in g.support)
    }
    for fault in undetected:
        for idx in {fault.site, fault.gate}:
            if idx >= input_count:
                name = circuit.signal_name(idx)
                if name in circuit.output_names or name in trivially_controllable:
                    continue
                score[name] = score.get(name, 0) + 1
    ranked = sorted(score.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked
