"""Scenario fuzzing: seeded STG/netlist generation, differential
oracles, shrinking and the seed driver.

This is test infrastructure, not package API: it lives next to the
tests and imports :mod:`repro`, never the other way round
(``tests/test_layering.py`` checks).  Run it from the repository root
with ``src`` and ``tests`` on the path::

    PYTHONPATH=src:tests python -m fuzzer -n 200 --workers 2 --out fuzz-out

The paper's experimental surface is 23 hand-authored STG benchmarks;
this package grows the corpus arbitrarily.  A seeded generator
(:mod:`fuzzer.generator`) emits *healthy* STGs — free-choice,
input-resolved, persistent, CSC — by construction on a Johnson-ring
backbone with concurrency/choice/mirror decorations, plus raw racy
feedback netlists for the settling oracles.  Every scenario runs
through the differential oracle pairs (:mod:`fuzzer.oracles`):

* the compiled settle kernel vs the seed's sweep settling
  (:mod:`fuzzer.reference`),
* explicit-exact vs symbolic CSSG construction,
* fault overlays vs materialized faulty netlists,
* arena walk kernel vs the seed's sweeps as fault simulation,
* plain vs incremental re-ATPG across mutations
  (:mod:`repro.fuzz.mutate`, which stays in the package because the
  benchmark draws its edits with it),
* three-phase undetectability vs the classifier and random walks,
* full vs stubborn-set-reduced exact settling,
* the exact machine's ternary certificate vs full exact settling.

A divergence is auto-shrunk (:mod:`fuzzer.shrink`) to a minimal
failing spec by the driver (:mod:`fuzzer.driver`), which maps seeds
over a process pool and writes ``fuzz_report.json``.
"""

from fuzzer.generator import GeneratorConfig, Scenario, generate_scenario
from fuzzer.oracles import OracleCaps, oracle_names, run_scenario
from fuzzer.shrink import shrink_netlist_text, shrink_scenario, shrink_spec

__all__ = [
    "GeneratorConfig",
    "OracleCaps",
    "Scenario",
    "generate_scenario",
    "oracle_names",
    "run_scenario",
    "shrink_netlist_text",
    "shrink_scenario",
    "shrink_spec",
]
