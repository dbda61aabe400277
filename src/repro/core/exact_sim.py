"""Exact faulty-machine simulation for deterministic test generation.

Ternary simulation is conservative with respect to the unbounded *gate*
delay model: its Φ also covers wire-delay races the model excludes, and
on interlocked complex gates that conservatism can hide perfectly good
tests (the faulty machine dissolves into Φ and no output difference is
ever definite).  The paper accepts the loss during bulk fault simulation
(§5.4) — so do we — but per-fault generation deserves better.

Here the faulty circuit is *materialized* as a real netlist
(:func:`repro.circuit.faults.materialize_fault`) and simulated by
exhaustive settling analysis, as the good circuit is.  Because a
faulty circuit driven by good-circuit-valid vectors may itself race, the
machine state is a **set** of possible stable states:

* applying a vector maps each member through its settling analysis and
  unions the outcomes;
* a fault is *detected* at a cycle when **every** member disagrees with
  the good circuit on some primary output — the paper's "corruption must
  show in all terminal stable states" (§5.2);
* if any member oscillates, exceeds the exploration cap, or the set
  grows beyond ``max_set``, the simulation reports ``None`` and the
  caller falls back to ternary semantics (sound, never optimistic).

This module owns no settling machinery of its own: all exploration
routes through its module-level name ``settle_report``, bound to
:func:`repro.sgraph.explore.reduced_settle_report`.  Only the stable
states and the cycle and truncation flags are read here, never the
height, so the stubborn-set-reduced explorer serves: it keeps every
stable state and every reachable cycle (the two theorems in its
docstring) and visits about a fifth of the states on Table 2.  Its cap
counts reduced states, so a start the full explorer would cut short
may finish here with an exact answer instead of falling back.  The
CSSG keeps the full :func:`repro.sgraph.explore.settle_report`, whose
heights its k-bound needs.  Both explorers enumerate excited gates
through the compiled function of :mod:`repro.sim.engine`.

With metrics armed, each fallback is counted in
``repro_exact_fallbacks_total{reason}``: ``oscillation``,
``truncation`` or ``max_set``.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.circuit.netlist import Circuit
from repro.obs import metrics as _obs
from repro.sgraph.explore import reduced_settle_report as settle_report

FaultyStates = FrozenSet[int]


def _fallback(reason: str) -> None:
    """Count one fall back to ternary semantics (metrics armed only)."""
    if _obs.enabled():
        _obs.get_registry().counter(
            "repro_exact_fallbacks_total",
            "Exact faulty-machine simulations handed back to ternary.",
            ("reason",),
        ).labels(reason).inc()


def _settled(faulty: Circuit, start: int, cap: int) -> Optional[FaultyStates]:
    """Stable states reachable from ``start``, or None (counted) when the
    machine may oscillate or the exploration hits ``cap``."""
    report = settle_report(faulty, start, cap)
    if report.truncated:
        _fallback("truncation")
        return None
    if report.oscillating:
        _fallback("oscillation")
        return None
    return report.stable_states


def faulty_reset_states(
    faulty: Circuit,
    reset_state: int,
    cap: int = 50_000,
    max_set: int = 64,
) -> Optional[FaultyStates]:
    """Possible stable states of the faulty machine after reset forcing.

    ``reset_state`` already carries the output-fault pre-set (see
    ``materialize_fault``).  Returns None when the machine may oscillate
    or the analysis blows the caps.
    """
    states = _settled(faulty, reset_state, cap)
    if states is not None and len(states) > max_set:
        _fallback("max_set")
        return None
    return states


def faulty_apply(
    faulty: Circuit,
    states: FaultyStates,
    pattern: int,
    cap: int = 50_000,
    max_set: int = 64,
) -> Optional[FaultyStates]:
    """Drive the inputs to ``pattern`` on every possible faulty state."""
    out = set()
    for state in states:
        settled = _settled(faulty, faulty.apply_input_pattern(state, pattern), cap)
        if settled is None:
            return None
        out |= settled
        if len(out) > max_set:
            _fallback("max_set")
            return None
    return frozenset(out)


def faulty_detects(circuit: Circuit, good_state: int, states: FaultyStates) -> bool:
    """True when every possible faulty stable state mismatches the good
    outputs — detection guaranteed for any delay assignment."""
    if not states:
        return False
    for state in states:
        if all(
            ((state >> out) & 1) == ((good_state >> out) & 1)
            for out in circuit.outputs
        ):
            return False
    return True
