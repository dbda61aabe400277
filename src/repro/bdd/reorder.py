"""The variable order of the symbolic CSSG builder.

The paper's §6 lists "studying better variable ordering strategies in
the use of BDDs" as the first way to speed up its symbolic step.
:func:`static_order` answers it: a connectivity-driven order computed
from the netlist before any BDD exists, DFS from the primary outputs
through gate fanins, so each signal lands next to the cone it feeds.
The symbolic CSSG builder installs it via
:meth:`~repro.bdd.manager.BddManager.set_order` on the fresh manager,
which avoids the (exponential) declaration-order blowup, and keeps it:
the kernel has no dynamic reordering.  Under this order the bundled
specs allocate at most 36k nodes, and the fork-join family about 101k
at 42 signals.
"""

from __future__ import annotations

from typing import List


def static_order(circuit) -> List[int]:
    """A netlist-driven initial variable order (level → signal index).

    Depth-first from each primary output through gate fanins, emitting
    signals in visit order: a gate sits immediately above the inputs of
    its cone, so related signals share adjacent levels — the classic
    static heuristic that keeps intermediate BDDs of structurally local
    functions small.  Signals outside every output cone follow, gates
    first (deepest last), then anything untouched in declaration order.
    """
    gate_at = {g.index: g for g in circuit.gates}
    seen = [False] * circuit.n_signals
    order: List[int] = []

    def visit(sig: int) -> None:
        stack = [sig]
        while stack:
            s = stack.pop()
            if seen[s]:
                continue
            seen[s] = True
            order.append(s)
            gate = gate_at.get(s)
            if gate is not None:
                stack.extend(
                    src for src in reversed(gate.support) if not seen[src]
                )

    for out in circuit.outputs:
        visit(out)
    for gate in circuit.gates:
        visit(gate.index)
    for s in range(circuit.n_signals):
        visit(s)
    return order
