"""Reference (pre-engine) simulators, kept for parity testing.

These are the seed tree's sweep-based Algorithm A/B implementations:
full-circuit passes with per-gate stack interpretation through
:func:`repro.circuit.expr.eval_ternary`.  The arena walk kernel in
:mod:`repro.sim.arena` — the package's one settle — must be
**bit-identical** to them on every state: ``tests/test_sim_cross.py``,
``tests/test_arena.py``, the fuzzer's ``settle`` and ``kernels`` oracle
pairs and ``benchmarks/bench_ternary_cost.py`` import this module as
the ground truth and the speed baseline.  Nothing under ``src/``
may (``tests/test_layering.py`` checks): the kernel is strictly
faster and the only supported settle path.

:func:`reference_reset` and :func:`reference_apply` run one scalar
machine per fault of any registered model on these sweeps, for
comparison with an engine's lanes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.circuit.expr import eval_ternary
from repro.circuit.faults import Fault, materialize_fault
from repro.circuit.netlist import Circuit, Gate
from repro.errors import SimulationError
from repro.sim.engine import BatchState
from repro.sim.ternary import TernaryState, from_binary


def _check_kind(fault: Optional[Fault]) -> None:
    """The oracle predates the fault-model registry and implements the
    two stuck-at kinds only; silently mis-simulating a bridging or
    transition fault would poison every differential test, so reject
    anything else loudly."""
    if fault is not None and fault.kind not in ("input", "output"):
        raise SimulationError(
            f"legacy oracle only simulates stuck-at kinds, not {fault.kind!r}"
        )


def _gate_eval(
    circuit: Circuit, gate: Gate, low: int, high: int, fault: Optional[Fault]
) -> Tuple[int, int]:
    """Ternary evaluation of one gate with optional fault injection."""
    if fault is not None and fault.kind == "output" and gate.index == fault.gate:
        return (0, 1) if fault.value else (1, 0)
    if fault is not None and fault.kind == "input" and gate.index == fault.gate:
        site, stuck = fault.site, fault.value

        def getv(sig: int) -> Tuple[int, int]:
            if sig == site:
                return (0, 1) if stuck else (1, 0)
            return ((low >> sig) & 1, (high >> sig) & 1)

    else:

        def getv(sig: int) -> Tuple[int, int]:
            return ((low >> sig) & 1, (high >> sig) & 1)

    return eval_ternary(gate.program, getv, 1)


def settle(
    circuit: Circuit, tstate: TernaryState, fault: Optional[Fault] = None
) -> TernaryState:
    """The seed's sweep-based scalar Algorithm A + B."""
    _check_kind(fault)
    low, high = tstate
    gates = circuit.gates
    sweep_guard = 2 * circuit.n_signals + 4
    for _ in range(sweep_guard):
        changed = False
        for gate in gates:
            el, eh = _gate_eval(circuit, gate, low, high, fault)
            gi = gate.index
            nl = ((low >> gi) & 1) | el
            nh = ((high >> gi) & 1) | eh
            if nl != ((low >> gi) & 1) or nh != ((high >> gi) & 1):
                low = (low & ~(1 << gi)) | (nl << gi)
                high = (high & ~(1 << gi)) | (nh << gi)
                changed = True
        if not changed:
            break
    else:
        raise SimulationError("Algorithm A failed to converge (internal bug)")
    for _ in range(sweep_guard):
        changed = False
        for gate in gates:
            el, eh = _gate_eval(circuit, gate, low, high, fault)
            gi = gate.index
            if el != ((low >> gi) & 1) or eh != ((high >> gi) & 1):
                low = (low & ~(1 << gi)) | (el << gi)
                high = (high & ~(1 << gi)) | (eh << gi)
                changed = True
        if not changed:
            break
    else:
        raise SimulationError("Algorithm B failed to converge (internal bug)")
    return (low, high)


def excited_gates(circuit: Circuit, state: int) -> List[int]:
    """The seed's full-sweep excited-gate enumeration (binary domain)."""
    from repro._bits import bit
    from repro.circuit.expr import eval_binary

    return [
        g.index
        for g in circuit.gates
        if eval_binary(g.program, state) != bit(state, g.index)
    ]


def batch_settle(
    circuit: Circuit, faults: Sequence[Fault], state: BatchState
) -> BatchState:
    """The seed's sweep-based word-parallel Algorithm A + B.

    Force masks are rebuilt per call (this is a test oracle, not a
    production path)."""
    from repro._bits import mask

    width = len(faults)
    ones = mask(width) if width else 0
    pin_force = {}
    out_force = {}
    for fault in faults:
        _check_kind(fault)
    for j, fault in enumerate(faults):
        if fault.kind == "input":
            per_gate = pin_force.setdefault(fault.gate, {})
            f0, f1 = per_gate.get(fault.site, (0, 0))
            if fault.value == 0:
                f0 |= 1 << j
            else:
                f1 |= 1 << j
            per_gate[fault.site] = (f0, f1)
        else:
            f0, f1 = out_force.get(fault.gate, (0, 0))
            if fault.value == 0:
                f0 |= 1 << j
            else:
                f1 |= 1 << j
            out_force[fault.gate] = (f0, f1)

    def gate_eval(gate, low, high):
        overrides = pin_force.get(gate.index)
        if overrides:

            def getv(sig):
                l, h = low[sig], high[sig]
                force = overrides.get(sig)
                if force is not None:
                    f0, f1 = force
                    l = (l | f0) & ~f1
                    h = (h | f1) & ~f0
                return (l, h)

        else:

            def getv(sig):
                return (low[sig], high[sig])

        el, eh = eval_ternary(gate.program, getv, ones)
        out = out_force.get(gate.index)
        if out is not None:
            f0, f1 = out
            el = (el | f0) & ~f1
            eh = (eh | f1) & ~f0
        return el, eh

    low = list(state[0])
    high = list(state[1])
    gates = circuit.gates
    guard = 2 * circuit.n_signals * max(1, width) + 4
    for _ in range(guard):
        changed = False
        for gate in gates:
            el, eh = gate_eval(gate, low, high)
            gi = gate.index
            nl = low[gi] | el
            nh = high[gi] | eh
            if nl != low[gi] or nh != high[gi]:
                low[gi] = nl
                high[gi] = nh
                changed = True
        if not changed:
            break
    else:
        raise SimulationError("batched Algorithm A failed to converge")
    for _ in range(guard):
        changed = False
        for gate in gates:
            el, eh = gate_eval(gate, low, high)
            gi = gate.index
            if el != low[gi] or eh != high[gi]:
                low[gi] = el
                high[gi] = eh
                changed = True
        if not changed:
            break
    else:
        raise SimulationError("batched Algorithm B failed to converge")
    return (tuple(low), tuple(high))


def _legacy_settle(
    circuit: Circuit, faults: Sequence[Fault], lanes: List[TernaryState]
) -> List[TernaryState]:
    """Settle one scalar machine per fault on the seed's sweeps.  The
    sweeps simulate the stuck-at kinds only, so those lanes settle
    together through :func:`batch_settle`, and each bridging or
    transition lane settles alone through :func:`settle` on its
    materialized faulty netlist."""
    out = list(lanes)
    stuck = [j for j, f in enumerate(faults) if f.kind in ("input", "output")]
    if stuck:
        low, high = batch_settle(
            circuit,
            [faults[j] for j in stuck],
            pack_lanes([lanes[j] for j in stuck], circuit.n_signals),
        )
        for k, j in enumerate(stuck):
            out[j] = (
                sum(((w >> k) & 1) << i for i, w in enumerate(low)),
                sum(((w >> k) & 1) << i for i, w in enumerate(high)),
            )
    for j, fault in enumerate(faults):
        if fault.kind not in ("input", "output"):
            out[j] = settle(materialize_fault(circuit, fault), lanes[j])
    return out


def pack_lanes(lanes: Sequence[TernaryState], n_signals: int) -> BatchState:
    """Scalar machine states as a packed batch state, lane ``j`` from
    ``lanes[j]`` (the inverse of :func:`repro.sim.engine.lane_of`)."""
    return tuple(
        tuple(
            sum(((s[half] >> i) & 1) << j for j, s in enumerate(lanes))
            for i in range(n_signals)
        )
        for half in (0, 1)
    )


def reference_reset(
    circuit: Circuit, faults: Sequence[Fault], reset: int
) -> List[TernaryState]:
    """Reference settled reset, one scalar state per fault: the reset
    state forced, an output stuck-at's node pre-set to its stuck value."""
    starts = []
    for fault in faults:
        state = reset
        if fault.kind == "output":
            state = (state & ~(1 << fault.site)) | (fault.value << fault.site)
        starts.append(from_binary(state, circuit.n_signals))
    return _legacy_settle(circuit, faults, starts)


def reference_apply(
    circuit: Circuit,
    faults: Sequence[Fault],
    lanes: List[TernaryState],
    pattern: int,
) -> List[TernaryState]:
    """Reference test cycle: drive ``pattern`` on every machine, settle."""
    imask = (1 << circuit.n_inputs) - 1
    driven = [
        ((low & ~imask) | (~pattern & imask), (high & ~imask) | (pattern & imask))
        for low, high in lanes
    ]
    return _legacy_settle(circuit, faults, driven)
