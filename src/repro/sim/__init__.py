"""Simulation engines.

* :mod:`repro.sim.arena` — the arena walk kernel, the package's one
  Algorithm A/B settle (Eichelberger's ternary simulation): a compiled
  generator per circuit, fault overlay masks passed as its arguments,
  state held in generator locals, one ``send`` per test cycle, both
  algorithms sharing one sweep body.
* :mod:`repro.sim.engine` — per-circuit compilation (excited-gate
  enumeration for the exact settling explorer, the walk kernels) and
  :class:`SimEngine`, the one simulation handle: a fault overlay that
  runs the kernel with its masks, one machine per fault — word-parallel
  ternary simulation of many faulty machines at once (parallel fault
  simulation, Seshu-style), and any one of them alone as a lane.
* :mod:`repro.sim.ternary` — scalar ternary simulation with optional
  single-fault injection; this is the conservative race/oscillation
  detector of paper §5.4.  Thin adapter over the engine.

The seed's sweep-based reference implementations are not in the
package: they live with the tests, in ``tests/fuzzer/reference.py``,
as the parity/benchmark oracle.
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
    "SimEngine",
    "compiled",
    "engine_for",
]
