"""Fault universe construction."""

import pytest

from repro.errors import ReproError
from repro.circuit.faults import (
    Fault,
    fault_universe,
    input_fault_universe,
    output_fault_universe,
)


def test_output_universe_two_per_gate(celem):
    faults = output_fault_universe(celem)
    assert len(faults) == 2 * celem.n_gates
    assert all(f.kind == "output" and f.gate == f.site for f in faults)


def test_input_universe_two_per_pin(celem):
    faults = input_fault_universe(celem)
    pins = sum(len(g.support) for g in celem.gates)
    assert len(faults) == 2 * pins
    # The C-element's feedback input is a pin too.
    c = celem.index("c")
    assert Fault("input", c, c, 0) in faults
    assert Fault("input", c, c, 1) in faults


def test_input_universe_at_least_as_large_as_output(celem):
    # Every gate has >= 1 input pin, so the input model subsumes the
    # output model in count (the paper's remark).
    assert len(input_fault_universe(celem)) >= len(output_fault_universe(celem))


def test_fault_universe_dispatch(celem):
    assert fault_universe(celem, "input") == input_fault_universe(celem)
    assert fault_universe(celem, "output") == output_fault_universe(celem)
    # Unknown models raise ReproError naming the registered ones (so the
    # CLIs exit 1 with an actionable message, not a traceback).
    with pytest.raises(ReproError, match="stuck-open.*registered models.*input"):
        fault_universe(celem, "stuck-open")


def test_describe(celem):
    c = celem.index("c")
    a = celem.index("a")
    assert Fault("input", c, a, 0).describe(celem) == "c<-a SA0"
    assert Fault("output", c, c, 1).describe(celem) == "c SA1"


def test_faults_are_hashable_and_ordered(celem):
    faults = input_fault_universe(celem)
    assert len(set(faults)) == len(faults)
    assert sorted(faults) == sorted(faults, key=lambda f: (f.kind, f.gate, f.site, f.value))
