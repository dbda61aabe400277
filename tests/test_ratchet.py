"""Three-phase detections under exact faulty-machine semantics.

No bundled benchmark has a fault that random walks miss and three-phase
generation (paper §5.1–5.3) then catches, so the exact faulty machine's
justify/differentiate path would be exercised only with zero verdicts.
The ratchet family does: inputs ``a`` and ``r``, and for i = 1..N

    x_i = ~r & (x_i | en_i),  en_i = a (i odd) or ~a (i even),
                              ANDed with x_{i-1} for i > 1,

with ``x_N`` the output and every signal reset to 0.  Each toggle of
``a`` advances the chain one stage and ``r`` clears it, so a random
walk, reset far more often than it reaches depth N, leaves the deep
stages to three-phase.  The family is built here, in code, with no
synthesis; it is not a registered benchmark.
"""

import pytest

from repro.circuit.parser import parse_netlist
from repro.core.atpg import AtpgOptions
from repro.core.three_phase import DETECTED
from repro.core.verify import audit_result
from repro.flow import Flow


def ratchet(n: int):
    """The N-stage ratchet netlist (see the module docstring)."""
    lines = [f".model ratchet{n}", ".inputs a r"]
    for i in range(1, n + 1):
        en = "a" if i % 2 else "~a"
        if i > 1:
            en = f"({en} & x{i - 1})"
        lines.append(f".expr x{i} = ~r & (x{i} | {en})")
    lines.append(f".outputs x{n}")
    zeros = ["a=0", "r=0"] + [f"x{i}=0" for i in range(1, n + 1)]
    lines.append(".reset " + " ".join(zeros))
    return parse_netlist("\n".join(lines) + "\n")


#: ``(total, rnd, 3-ph, sim, undetectable, aborted)`` per (N, model),
#: ``Flow.default()`` with exact faulty semantics, seed 0.
COUNTS = {
    (4, "input"): (30, 26, 1, 0, 3, 0),
    (4, "output"): (8, 8, 0, 0, 0, 0),
    (6, "input"): (46, 20, 4, 17, 5, 0),
    (6, "output"): (12, 6, 1, 5, 0, 0),
    (8, "input"): (62, 13, 9, 33, 7, 0),
    (8, "output"): (16, 6, 1, 9, 0, 0),
}


@pytest.mark.parametrize("n,model", sorted(COUNTS))
def test_ratchet_verdicts_and_tests_are_pinned(n, model):
    result = Flow.default().run(
        ratchet(n), AtpgOptions(fault_model=model, seed=0)
    )
    assert result.options.faulty_semantics == "exact"
    assert (
        result.n_total,
        result.n_random,
        result.n_three_phase,
        result.n_fault_sim,
        result.n_undetectable,
        result.n_aborted,
    ) == COUNTS[n, model]
    report = audit_result(result)
    assert report.all_tests_valid
    for status in result.statuses.values():
        if status.status == DETECTED:
            assert status.fault in report.per_test[status.test_index]
