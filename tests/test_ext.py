"""Extensions: partial scan, undetectable classification, path listing."""

import pytest

from repro.benchmarks_data import load_benchmark
from repro.circuit.faults import input_fault_universe
from repro.core.atpg import AtpgOptions
from repro.errors import NetlistError
from repro.ext.scan import insert_scan_inputs, rank_scan_candidates
from repro.ext.undetectable import (
    NEVER_EXCITED,
    POSSIBLY_DETECTABLE,
    STABLE_EQUIVALENT,
    classify_undetectable,
)
from repro.flow import Flow
from repro.sgraph.cssg import build_cssg


# -- scan ---------------------------------------------------------------

def test_scan_insertion_structure(celem):
    scanned = insert_scan_inputs(celem, ["c"])
    assert "c" in scanned.input_names
    assert "c$obs" in scanned.output_names
    assert scanned.is_stable(scanned.require_reset())


def test_scan_rejects_bad_names(celem):
    with pytest.raises(NetlistError):
        insert_scan_inputs(celem, ["A"])  # primary input, not a gate
    with pytest.raises(NetlistError):
        insert_scan_inputs(celem, ["zz"])


def test_scan_improves_coverage_on_redundant_circuit():
    circuit = load_benchmark("converta", "complex")
    options = AtpgOptions(fault_model="input", seed=1)
    base = Flow.default().run(circuit, options)
    assert base.coverage < 1.0
    ranking = rank_scan_candidates(circuit, base.undetected_faults())
    assert ranking
    scanned = insert_scan_inputs(circuit, [ranking[0][0]])
    improved = Flow.default().run(scanned, options)
    assert improved.coverage > base.coverage


def test_rank_candidates_excludes_outputs_and_inputs(celem):
    faults = input_fault_universe(celem)
    ranking = rank_scan_candidates(celem, faults)
    names = [name for name, _ in ranking]
    assert "A" not in names and "B" not in names
    assert "c" not in names  # already an observable output


# -- undetectable classification ------------------------------------------

def test_classifier_on_known_redundancy():
    from repro.circuit.parser import parse_netlist
    from repro.circuit.faults import Fault

    net = """
    .model red
    .inputs A
    .gate a BUF A
    .expr y = a | (a & y)
    .outputs y
    .reset A=0 a=0 y=0
    """
    circuit = parse_netlist(net)
    cssg = build_cssg(circuit)
    y = circuit.index("y")
    fault = Fault("input", y, y, 0)
    result = classify_undetectable(cssg, [fault])
    assert result[fault].verdict in (NEVER_EXCITED, STABLE_EQUIVALENT)


def test_classifier_never_flags_detectable_faults(celem):
    """Soundness: every fault the engine detects must be classified as
    possibly detectable."""
    result = Flow.default().run(celem, AtpgOptions(seed=1))
    cssg = result.cssg
    detected = [
        f for f in result.faults if result.statuses[f].status == "detected"
    ]
    classes = classify_undetectable(cssg, detected)
    for fault, cls in classes.items():
        assert cls.verdict == POSSIBLY_DETECTABLE, fault.describe(celem)


PULSE_NET = """
.model pulse
.inputs s0
.gate s0$buf BUF s0
.expr s1 = s0$buf & ~s3
.expr s3 = s2
.expr s2 = s1 | (s0$buf & s2)
.outputs s1 s3
.reset s0=0 s0$buf=0 s1=0 s3=0 s2=0
"""


@pytest.mark.parametrize("use_symbolic", [True, False])
def test_never_excited_sees_transient_pulses(use_symbolic):
    """s1 is 0 in both stable states, but pulses high while s0+ settles,
    and the pulse is what sets s2.  Stuck-at-0 on s1 (or on s2's pin
    from s1) is therefore detected by one vector; a proof over stable
    states alone wrongly called both faults never excited."""
    from repro.circuit.faults import Fault
    from repro.circuit.parser import parse_netlist

    circuit = parse_netlist(PULSE_NET)
    cssg = build_cssg(circuit)
    s1, s2 = circuit.index("s1"), circuit.index("s2")
    assert all(not (state >> s1) & 1 for state in cssg.states)
    faults = [Fault("output", s1, s1, 0), Fault("input", s2, s1, 0)]
    classes = classify_undetectable(cssg, faults, use_symbolic=use_symbolic)
    result = Flow.default().run(circuit, AtpgOptions(seed=0), faults=faults)
    for fault in faults:
        assert result.statuses[fault].status == "detected"
        assert classes[fault].verdict == POSSIBLY_DETECTABLE, fault.describe(
            circuit
        )


def test_never_excited_symbolic_at_most_explicit():
    """The symbolic check runs over the TCSG reachable set — a superset
    of the states the CSSG's edges settle through — so it may only be
    *stricter* than the explicit walk: anything it calls never-excited,
    the explicit walk must too."""
    from repro.ext.undetectable import _never_excited, _never_excited_symbolic
    from repro.sgraph.symbolic import SymbolicTcsg

    for name in ("ebergen", "converta", "dff"):
        circuit = load_benchmark(name, "complex")
        cssg = build_cssg(circuit)
        sym = SymbolicTcsg(circuit)
        reach = sym.reachable(sym.state_bdd(cssg.reset))
        for fault in input_fault_universe(circuit):
            if _never_excited_symbolic(sym, reach, fault):
                assert _never_excited(cssg, fault), (name, fault)


def test_classifier_symbolic_and_explicit_agree_on_verdict_partition():
    """Both never-excited backends feed the same downstream logic; the
    final undetectable-vs-possible partition must not differ on the
    bundled redundant circuit."""
    circuit = load_benchmark("converta", "complex")
    cssg = build_cssg(circuit)
    faults = input_fault_universe(circuit)
    with_symbolic = classify_undetectable(cssg, faults)
    explicit = classify_undetectable(cssg, faults, use_symbolic=False)
    for fault in faults:
        a = with_symbolic[fault].verdict == POSSIBLY_DETECTABLE
        b = explicit[fault].verdict == POSSIBLY_DETECTABLE
        assert a == b, fault.describe(circuit)
