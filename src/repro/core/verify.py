"""Independent verification of a generated test set.

ATPG results deserve an auditor that shares none of the generator's
shortcuts: ``verify_test_set`` replays every test from the reset state
with the word-parallel ternary simulator against an arbitrary fault list
and reports exactly which faults are *guaranteed* caught (definite
output difference at some observation point) — the contract a real
tester needs.  It also revalidates that every applied vector is a legal
CSSG edge, i.e. race-free on the good circuit.

This is what a downstream user runs before committing a pattern set to
silicon, and what the test suite uses to audit the engine's claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set

from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.core.atpg import cssg_for
from repro.core.sequences import Test
from repro.sgraph.cssg import Cssg
from repro.sim.engine import engine_for


@dataclass
class VerificationReport:
    """Outcome of auditing one test set."""

    circuit: Circuit
    n_faults: int
    detected: Set[Fault] = field(default_factory=set)
    per_test: List[Set[Fault]] = field(default_factory=list)
    invalid_tests: List[int] = field(default_factory=list)

    @property
    def n_detected(self) -> int:
        return len(self.detected)

    @property
    def coverage(self) -> float:
        return self.n_detected / self.n_faults if self.n_faults else 1.0

    @property
    def all_tests_valid(self) -> bool:
        return not self.invalid_tests

    def summary(self) -> str:
        valid = "all vectors race-free" if self.all_tests_valid else (
            f"INVALID tests: {self.invalid_tests}"
        )
        return (
            f"{self.circuit.name}: verified {self.n_detected}/{self.n_faults} "
            f"faults ({100.0 * self.coverage:.2f}%) across "
            f"{len(self.per_test)} tests; {valid}"
        )


def verify_test_set(
    cssg: Cssg,
    tests: Iterable[Test],
    faults: Sequence[Fault],
) -> VerificationReport:
    """Replay ``tests`` against ``faults`` and report guaranteed catches.

    Every pattern of every test is validated against the CSSG; a test
    using a pruned (racy) vector is recorded in ``invalid_tests`` and its
    remaining patterns are skipped — a tester could not apply it safely.
    """
    circuit = cssg.circuit
    report = VerificationReport(circuit=circuit, n_faults=len(faults))
    # One engine (and therefore one cached compiled arena kernel) serves
    # every test: the engine holds no cross-test state beyond its fault
    # masks, and each replay is a fresh kernel walk from reset.
    engine = engine_for(circuit, faults)
    for index, test in enumerate(tests):
        walk = engine.walk(cssg.reset)
        good = cssg.reset
        caught = walk.observe(good)
        valid = True
        for pattern in test.patterns:
            nxt = cssg.successor(good, pattern)
            if nxt is None:
                valid = False
                break
            good = nxt
            caught |= walk.step(pattern, good)
        if not valid:
            report.invalid_tests.append(index)
        hits = {faults[j] for j in range(len(faults)) if (caught >> j) & 1}
        report.per_test.append(hits)
        report.detected |= hits
    return report


def audit_result(result, faults: Optional[Sequence[Fault]] = None) -> VerificationReport:
    """Audit an :class:`~repro.core.atpg.AtpgResult` against its own
    fault universe (or a caller-supplied list).

    A deserialized result carries only a CSSG summary, so its graph is
    rebuilt the way the flow built it."""
    if faults is None:
        faults = result.faults
    cssg = result.cssg
    if not isinstance(cssg, Cssg):
        cssg = cssg_for(result.circuit, result.options)
    return verify_test_set(cssg, result.tests, faults)
