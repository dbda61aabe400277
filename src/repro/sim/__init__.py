"""Simulation engines.

* :mod:`repro.sim.engine` — the compiled, event-driven settle core every
  workload shares: per-circuit code generation, fanout-driven worklist
  Algorithm A/B, pluggable fault overlays (none / scalar / packed);
  per-gate evaluators compile on an engine's first settle.
* :mod:`repro.sim.ternary` — scalar ternary simulation (Eichelberger's
  Algorithms A and B) with optional single-fault injection; this is the
  conservative race/oscillation detector of paper §5.4.  Thin adapter
  over the engine.
* :mod:`repro.sim.arena` — the walk fast path: a compiled generator
  kernel (state held in generator locals, one ``send`` per test cycle,
  Algorithms A and B sharing one sweep body).
* :mod:`repro.sim.batch` — word-parallel ternary simulation of many
  faulty machines at once (parallel fault simulation, Seshu-style).
  Thin adapter over the engine and the arena walk kernel.
* :mod:`repro.sim.legacy` — the seed's sweep-based reference
  implementations, kept exclusively as the parity/benchmark oracle.
"""

from repro.sim.ternary import (
    TernaryState,
    from_binary,
    is_definite,
    to_binary,
    settle,
    apply_pattern,
    apply_pattern_settled,
    settle_from_reset,
    detects,
    phi_signals,
)
from repro.sim.arena import ArenaKernel, ArenaWalk, arena_for
from repro.sim.batch import FaultBatch
from repro.sim.engine import SimEngine, compiled, engine_for

__all__ = [
    "TernaryState",
    "from_binary",
    "is_definite",
    "to_binary",
    "settle",
    "apply_pattern",
    "apply_pattern_settled",
    "settle_from_reset",
    "detects",
    "phi_signals",
    "ArenaKernel",
    "ArenaWalk",
    "arena_for",
    "FaultBatch",
    "SimEngine",
    "compiled",
    "engine_for",
]
