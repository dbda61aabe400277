"""Experiment E9 — ablations over the design choices DESIGN.md calls out.

* random-TPG budget vs the rnd/3-ph split (paper §5.4 / §6);
* k (test-cycle bound) sweep: too-small k starves the CSSG (paper §4.1);
* max simultaneous input changes (tester pin constraints);
* CSSG validity methods: exact vs ternary vs hybrid edge counts;
* explicit vs symbolic (BDD) reachability agreement and cost.
"""

import pytest

from repro.benchmarks_data import load_benchmark
from repro.circuit.faults import input_fault_universe
from repro.core.atpg import AtpgOptions
from repro.flow import Flow
from repro.sgraph.cssg import build_cssg
from repro.sgraph.symbolic import SymbolicTcsg


def test_random_budget_split(benchmark):
    """More random budget -> more rnd, fewer 3-ph detections, same FC."""
    circuit = load_benchmark("sbuf-send-ctl", "complex")
    results = {}

    def sweep():
        for walks, length in ((1, 1), (4, 8), (16, 64)):
            options = AtpgOptions(seed=11, random_walks=walks, walk_len=length)
            results[(walks, length)] = Flow.default().run(circuit, options)
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    coverages = {key: r.coverage for key, r in results.items()}
    assert len(set(coverages.values())) == 1, "final FC must not depend on budget"
    assert results[(1, 1)].n_random <= results[(16, 64)].n_random
    assert results[(1, 1)].n_three_phase >= results[(16, 64)].n_three_phase


def test_k_sweep(benchmark):
    """The CSSG grows monotonically with k and saturates (§4.1)."""
    circuit = load_benchmark("master-read", "complex")

    def sweep():
        return {k: build_cssg(circuit, k=k, method="exact").n_edges
                for k in (1, 2, 4, 8, 32)}

    edges = benchmark.pedantic(sweep, rounds=1, iterations=1)
    values = [edges[k] for k in (1, 2, 4, 8, 32)]
    assert values == sorted(values)
    assert edges[32] == edges[8], "edge count saturates once k covers |sigma|"
    assert edges[1] < edges[32]


def test_max_input_changes(benchmark):
    """Restricting simultaneous pin changes shrinks the vector set."""
    circuit = load_benchmark("chu150", "complex")

    def sweep():
        return {
            limit: build_cssg(circuit, max_input_changes=limit).n_edges
            for limit in (1, 2, None)
        }

    edges = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert edges[1] <= edges[2] <= edges[None]


@pytest.mark.parametrize("name", ["ebergen", "converta"])
def test_cssg_method_comparison(benchmark, name):
    """hybrid accepts the union of exact and ternary acceptances."""
    circuit = load_benchmark(name, "two-level")

    def build_all():
        return {m: build_cssg(circuit, method=m)
                for m in ("exact", "ternary", "hybrid")}

    cssgs = benchmark.pedantic(build_all, rounds=1, iterations=1)
    exact, tern, hybrid = (cssgs[m] for m in ("exact", "ternary", "hybrid"))
    assert hybrid.n_edges >= max(exact.n_edges, tern.n_edges)


def test_symbolic_vs_explicit_reachability(benchmark):
    circuit = load_benchmark("vbe5b", "complex")
    sym = SymbolicTcsg(circuit)

    reached = benchmark(lambda: sym.reachable())
    explicit = build_cssg(circuit, method="exact")
    symbolic_stable = set(sym.enumerate_states(sym.mgr.apply_and(reached, sym.stable)))
    assert explicit.states <= symbolic_stable


# The textbook circuit where ternary conservatism hides a perfectly
# good test (the exact_sim docstring's "interlocked complex gates"):
# ``b`` lags ``a``, so the window gate ``w = a & ~b`` never opens under
# the gate-delay model and the transparent arbiter q1/q2 stays silent —
# the good machine is confluent.  Stick w's ``b`` pin at 0 and ``w``
# follows ``a``: the arbiter races to (1,0) or (0,1), *both* of which
# corrupt an output, so exact set-semantics detection succeeds — while
# ternary simulation dissolves the cross-coupled pair into Φ and can
# never certify a definite difference.
_INTERLOCK_NET = """
.model interlock
.inputs A
.gate a BUF A
.gate b BUF a
.expr w = a & ~b
.expr q1 = (w & ~q2) | (q1 & w)
.expr q2 = (w & ~q1) | (q2 & w)
.outputs q1 q2
.reset A=0 a=0 b=0 w=0 q1=0 q2=0
"""


def test_exact_vs_ternary_faulty_semantics(benchmark):
    """Exact faulty-machine semantics never loses coverage vs ternary,
    and recovers it where ternary conservatism bites (interlocked
    gates racing to all-corrupted outcomes)."""
    from repro.circuit.parser import parse_netlist

    circuit = parse_netlist(_INTERLOCK_NET)
    results = {}

    def run_both():
        for semantics in ("exact", "ternary"):
            options = AtpgOptions(seed=11, faulty_semantics=semantics)
            results[semantics] = Flow.default().run(circuit, options)
        return results

    benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert results["exact"].n_covered >= results["ternary"].n_covered
    assert results["exact"].n_covered > results["ternary"].n_covered
    # And on the bundled handshake suite the two semantics agree — the
    # conservatism gap needs interlocked gates the suite avoids.
    suite = load_benchmark("chu150", "complex")
    per = {}
    for semantics in ("exact", "ternary"):
        options = AtpgOptions(seed=11, faulty_semantics=semantics)
        per[semantics] = Flow.default().run(suite, options)
    assert per["exact"].n_covered >= per["ternary"].n_covered


def test_fault_collapsing_ablation(benchmark):
    """Collapsing shrinks the per-fault work list losslessly."""
    from repro.core.collapse import collapse_faults

    circuit = load_benchmark("sbuf-send-ctl", "complex")
    faults = input_fault_universe(circuit)
    results = {}

    def run_both():
        for collapse in (False, True):
            options = AtpgOptions(seed=11, collapse=collapse)
            results[collapse] = Flow.default().run(circuit, options)
        return results

    benchmark.pedantic(run_both, rounds=1, iterations=1)
    reps, _ = collapse_faults(circuit, faults)
    assert len(reps) <= len(faults)
    assert results[False].n_covered == results[True].n_covered
