"""Simulation engines.

* :mod:`repro.sim.arena` — the arena walk kernel, the package's one
  Algorithm A/B settle (Eichelberger's ternary simulation): a compiled
  generator per circuit, fault overlay masks passed as its arguments,
  state held in generator locals, one ``send`` per test cycle, both
  algorithms sharing one sweep body.
* :mod:`repro.sim.engine` — per-circuit compilation (excited-gate
  enumeration for the exact settling explorer, the walk kernels) and
  the pluggable fault overlays (none / scalar / packed) that run the
  kernel with their masks.
* :mod:`repro.sim.ternary` — scalar ternary simulation with optional
  single-fault injection; this is the conservative race/oscillation
  detector of paper §5.4.  Thin adapter over the engine.
* :mod:`repro.sim.batch` — word-parallel ternary simulation of many
  faulty machines at once (parallel fault simulation, Seshu-style), and
  any one of them alone as a lane of the same kernel.  Thin adapter
  over the engine.
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
    settle_from_reset,
    detects,
    phi_signals,
)
from repro.sim.arena import ArenaWalk
from repro.sim.batch import FaultBatch
from repro.sim.engine import SimEngine, compiled, engine_for

__all__ = [
    "TernaryState",
    "from_binary",
    "is_definite",
    "to_binary",
    "settle",
    "apply_pattern",
    "settle_from_reset",
    "detects",
    "phi_signals",
    "ArenaWalk",
    "FaultBatch",
    "SimEngine",
    "compiled",
    "engine_for",
]
