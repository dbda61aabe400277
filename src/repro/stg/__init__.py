"""Signal Transition Graph (STG) front end.

The paper's benchmarks are asynchronous controllers synthesized from STG
specifications by Petrify (speed-independent, Table 1) and SIS
(hazard-free bounded-delay, Table 2).  Neither tool is available offline,
so this subpackage implements the required slice from scratch:

* :mod:`repro.stg.petrinet` — STGs as labeled safe Petri nets;
* :mod:`repro.stg.parser` — the textual ``.g`` (astg) format;
* :mod:`repro.stg.reachability` — token-game state graph with safeness,
  consistency and CSC (Complete State Coding) checks;
* :mod:`repro.stg.twolevel` — two-level minimization with don't-cares:
  primes as the minimal transversals of the OFF-set, irredundant and
  complete-sum covers;
* :mod:`repro.stg.synthesis` — gate-level implementations: atomic
  complex gates (speed-independent, the Petrify stand-in) and structural
  two-level networks with complete-sum covers (the redundant SIS
  stand-in).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.stg.petrinet": ("Stg", "Transition"),
    "repro.stg.parser": ("parse_stg", "load_stg"),
    "repro.stg.reachability": ("StateGraph", "build_state_graph", "check_csc"),
    "repro.stg.synthesis": ("synthesize",),
    "repro.stg.analysis": ("StgReport", "analyse_stg"),
    "repro.stg.twolevel": ("Cube", "compute_primes", "irredundant_cover", "cover_eval"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
