"""Test sequence containers.

A *test* is a sequence of synchronous input patterns applied from the
reset state, one per test cycle; outputs are observed after each cycle.
Every pattern of every stored test is a valid CSSG edge, so it can be
applied by a real-life synchronous tester without risking races.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit


@dataclass
class Test:
    """One input-pattern sequence and the faults it detects."""

    __test__ = False  # not a pytest class, despite the name

    patterns: Tuple[int, ...]
    faults: List[Fault] = field(default_factory=list)
    source: str = "3-phase"  # "random" | "3-phase" | "fault-sim" origin

    def __len__(self) -> int:
        return len(self.patterns)

    def format_patterns(self, circuit: Circuit) -> List[str]:
        """Render each pattern as an input-ordered bit string."""
        m = circuit.n_inputs
        return ["".join(str((p >> i) & 1) for i in range(m)) for p in self.patterns]

    def to_json_dict(self) -> Dict:
        return {
            "patterns": list(self.patterns),
            "faults": [f.to_json() for f in self.faults],
            "source": self.source,
        }

    @staticmethod
    def from_json_dict(data: Dict) -> "Test":
        return Test(
            patterns=tuple(int(p) for p in data["patterns"]),
            faults=[Fault.from_json(f) for f in data["faults"]],
            source=str(data["source"]),
        )


@dataclass
class TestSet:
    """All tests produced by one ATPG run."""

    __test__ = False  # not a pytest class, despite the name

    circuit: Circuit
    tests: List[Test] = field(default_factory=list)

    def add(self, test: Test) -> None:
        self.tests.append(test)

    @property
    def n_vectors(self) -> int:
        return sum(len(t) for t in self.tests)

    def __iter__(self):
        return iter(self.tests)

    def __len__(self):
        return len(self.tests)
