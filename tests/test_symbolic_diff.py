"""Differential harness: explicit vs symbolic CSSG on random netlists.

The 23 bundled benchmarks are well-behaved SI circuits; this harness
feeds both builders seeded *random* feedback netlists — racy, oscillating
and non-confluent behaviour included — and asserts exact agreement of
states, edges and reset, and adds the largest Table-2 circuit.  A second
battery mirrors one op sequence (gate functions, quantification,
relational products, renames) on the arena :class:`BddManager` and the
seed :class:`LegacyBddManager` (kept in ``tests/legacy_bdd.py``),
comparing function *semantics* (truth vectors and model counts).  A
third pins the TCSG reachable counts the seed manager gave on an
order-sensitive wide handshake, and bounds the nodes the static
variable order allocates there.
"""

import random

import pytest
from legacy_bdd import LegacyBddManager

from repro.bdd.manager import BddManager
from repro.benchmarks_data import load_benchmark
from repro.circuit.expr import OP_AND, OP_NOT, OP_OR, OP_VAR, OP_XOR
from repro.circuit.netlist import Circuit
from repro.sgraph.cssg import build_cssg
from repro.sgraph.symbolic import SymbolicTcsg

N_SEEDS = 40
_OPS = ("&", "|", "^")


def _random_expr(rng: random.Random, names, depth: int) -> str:
    if depth <= 0 or (len(names) > 1 and rng.random() < 0.35):
        name = rng.choice(names)
        return f"~{name}" if rng.random() < 0.4 else name
    a = _random_expr(rng, names, depth - 1)
    b = _random_expr(rng, names, depth - 1)
    return f"({a} {rng.choice(_OPS)} {b})"


def _build(rng: random.Random, reset_bits=None):
    """One random buffered feedback netlist; reset optionally forced."""
    n_inputs = rng.randint(1, 3)
    n_gates = rng.randint(2, 4)
    c = Circuit(f"rand-{rng.getstate()[1][0] & 0xffff:x}")
    sigs = []
    for i in range(n_inputs):
        c.add_input(f"I{i}")
    for i in range(n_inputs):
        c.add_gate(f"b{i}", gtype="BUF", inputs=[f"I{i}"])
        sigs.append(f"b{i}")
    for j in range(n_gates):
        name = f"g{j}"
        # Self- and forward-feedback allowed: racy circuits are the point.
        pool = sigs + [name]
        c.add_gate(name, expr=_random_expr(rng, pool, rng.randint(1, 3)))
        sigs.append(name)
    c.mark_output(sigs[-1])
    if reset_bits is not None:
        names = [f"I{i}" for i in range(n_inputs)] + sigs
        c.set_reset({n: (reset_bits >> i) & 1 for i, n in enumerate(names)})
    return c.finalize()


def random_circuit(seed: int):
    """A random netlist with a *stable* reset, or None for this seed."""
    probe = _build(random.Random(seed))
    stable = probe.enumerate_stable_states()
    if not stable:
        return None
    # Deterministic choice among stable states, rebuilt with that reset.
    pick = stable[random.Random(seed ^ 0x5EED).randrange(len(stable))]
    return _build(random.Random(seed), reset_bits=pick)


def _agree(circuit, **symbolic_kwargs):
    explicit = build_cssg(circuit, method="exact")
    symbolic = SymbolicTcsg(circuit, **symbolic_kwargs).build_cssg()
    assert symbolic.reset == explicit.reset
    assert symbolic.states == explicit.states
    assert symbolic.edges == explicit.edges
    return explicit


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_random_netlists_explicit_equals_symbolic(seed):
    circuit = random_circuit(seed)
    if circuit is None:
        pytest.skip("no stable state for this seed")
    _agree(circuit)


def test_harness_is_not_vacuous():
    """The seed range must actually produce circuits, and some with
    non-trivial graphs — otherwise the battery above proves nothing."""
    built = [c for c in (random_circuit(s) for s in range(N_SEEDS)) if c]
    assert len(built) >= N_SEEDS // 2
    graphs = [build_cssg(c, method="exact") for c in built]
    assert any(g.n_states > 1 for g in graphs)
    assert any(g.n_edges > 2 for g in graphs)
    # ...and some pruning happened somewhere (invalid vectors exist).
    assert any(g.stats.n_valid < g.stats.n_vectors_tried for g in graphs)


def test_symbolic_matches_exact_on_vbe10b_two_level():
    """The largest Table-2 circuit (20 signals, the most BDD nodes of
    the bundled corpus)."""
    _agree(load_benchmark("vbe10b", "two-level"))


# -- arena BddManager vs the seed LegacyBddManager -----------------------


def _compile_gate(mgr, program, cur):
    """Stack-evaluate a gate program into a BDD over current-state vars
    (identical recipe for both managers)."""
    stack = []
    for op, arg in program:
        if op == OP_VAR:
            stack.append(mgr.var(cur(arg)))
        elif op == OP_NOT:
            stack.append(mgr.apply_not(stack.pop()))
        elif op == OP_AND:
            b, a = stack.pop(), stack.pop()
            stack.append(mgr.apply_and(a, b))
        elif op == OP_OR:
            b, a = stack.pop(), stack.pop()
            stack.append(mgr.apply_or(a, b))
        elif op == OP_XOR:
            b, a = stack.pop(), stack.pop()
            stack.append(mgr.apply_xor(a, b))
        else:
            stack.append(1 if arg else 0)
    return stack[0]


def _truth_vector(mgr, f, n_signals, n_vars):
    """Bit ``s`` = f evaluated at assignment ``s`` of the current-state
    vars — a manager-independent semantic fingerprint."""
    vec = 0
    assignment = [0] * n_vars
    for s in range(1 << n_signals):
        for i in range(n_signals):
            assignment[i] = (s >> i) & 1
        vec |= mgr.eval(f, assignment) << s
    return vec


def _mirror_ops(mgr, circuit):
    """Run the shared op sequence; return the semantic fingerprints."""
    n = circuit.n_signals
    n_vars = 2 * n
    cur = lambda i: i  # noqa: E731 - trivial index maps
    nxt = lambda i: n + i  # noqa: E731
    out = []
    gate_fns = {}
    for gate in circuit.gates:
        f = _compile_gate(mgr, gate.program, cur)
        gate_fns[gate.index] = f
        out.append(_truth_vector(mgr, f, n, n_vars))
    # The stable-set conjunction (every gate agrees with its function).
    stable = mgr.and_all(
        mgr.apply_iff(mgr.var(cur(g.index)), gate_fns[g.index])
        for g in circuit.gates
    )
    out.append(_truth_vector(mgr, stable, n, n_vars))
    out.append(mgr.sat_count(stable, [cur(i) for i in range(n)]))
    # Quantification, relational product, rename round-trip.
    some_vars = [cur(i) for i in range(0, n, 2)]
    ex = mgr.exists(stable, some_vars)
    out.append(_truth_vector(mgr, ex, n, n_vars))
    for g in circuit.gates[:2]:
        ae = mgr.and_exists(stable, gate_fns[g.index], some_vars)
        out.append(_truth_vector(mgr, ae, n, n_vars))
    renamed = mgr.rename(stable, {cur(i): nxt(i) for i in range(n)})
    back = mgr.rename(renamed, {nxt(i): cur(i) for i in range(n)})
    out.append(_truth_vector(mgr, back, n, n_vars))
    out.append(int(back == stable))  # canonicity: round-trip is identity
    return out


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_random_netlists_arena_bdd_equals_legacy(seed):
    """The arena kernel and the seed manager agree on every fingerprint
    of the mirrored op sequence."""
    circuit = random_circuit(seed)
    if circuit is None:
        pytest.skip("no stable state for this seed")
    arena = BddManager(2 * circuit.n_signals)
    legacy = LegacyBddManager(2 * circuit.n_signals)
    assert _mirror_ops(arena, circuit) == _mirror_ops(legacy, circuit)


# -- reachable counts on an order-sensitive wide handshake ---------------


def wide_handshake(m):
    """``m`` buffered request lines and a completion-tree ack.

    Declaration order puts all inputs before all buffers, so each
    (input, buffer) pair sits ``m`` levels apart: the pattern that is
    exponential under that order, which the arena kernel escapes by
    installing :func:`~repro.bdd.reorder.static_order` (each buffer
    next to its input)."""
    c = Circuit(f"wide{m}")
    reset = {}
    for i in range(m):
        c.add_input(f"I{i}")
        reset[f"I{i}"] = 0
    for i in range(m):
        c.add_gate(f"b{i}", gtype="BUF", inputs=[f"I{i}"])
        reset[f"b{i}"] = 0
    c.add_gate("ack", expr=" & ".join(f"b{i}" for i in range(m)))
    reset["ack"] = 0
    c.mark_output("ack")
    c.set_reset(reset)
    return c.finalize()


#: TCSG reachable-state counts of ``wide_handshake(m)``, computed by the
#: seed's monolithic traversal (interleaved 2n-variable encoding on
#: :class:`LegacyBddManager`); each equals 4**m + 3**m - 1.
SEED_WIDE_REACHABLE = {6: 4_824, 8: 72_096, 10: 1_107_624}

#: Peak nodes of that fixpoint (every node allocated: the manager never
#: frees), about twice what the static order needs (1,865 / 3,976 /
#: 7,546).  Under declaration order the same runs allocate 12,090 /
#: 81,166 / 495,823.
WIDE_PEAK_BOUND = {6: 3_800, 8: 8_000, 10: 15_000}


@pytest.mark.parametrize("m", sorted(SEED_WIDE_REACHABLE))
def test_wide_handshake_reachable_count_matches_seed(m):
    """The arena kernel reaches the seed's reachable-state count, and
    its static variable order keeps the allocated node count small."""
    sym = SymbolicTcsg(wide_handshake(m))
    assert sym.count_states(sym.reachable()) == SEED_WIDE_REACHABLE[m]
    assert sym.mgr.stats.n_allocated <= WIDE_PEAK_BOUND[m]
