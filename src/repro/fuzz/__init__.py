"""Netlist mutation operators (:mod:`repro.fuzz.mutate`).

The mutators draw the edits of incremental re-ATPG runs: the
benchmark's edit-rerun workload and the fuzzer's ``incremental`` oracle
pair use them.  The fuzzer itself (generator, oracle pairs, shrinker,
the seed's reference sweeps and the seed driver) is test
infrastructure and lives with the tests, in ``tests/fuzzer``.
"""
