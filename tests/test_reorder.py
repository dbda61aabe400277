"""BDD variable orders (the paper's §6 'better orderings' lead): the
initial order the symbolic builder installs, and what an order does to
a function's size."""

import pytest

from repro.bdd.manager import BddManager
from repro.bdd.reorder import static_order
from repro.benchmarks_data import load_figure_circuit
from repro.errors import BddError

PAIRED = [0, 3, 1, 4, 2, 5]


def classic(order=None):
    """f = (x0<->x3) & (x1<->x4) & (x2<->x5) built under ``order``: the
    blocked (identity) order is exponential, the paired one linear."""
    mgr = BddManager(6)
    if order is not None:
        mgr.set_order(order)
    f = mgr.and_all(
        mgr.apply_iff(mgr.var(i), mgr.var(i + 3)) for i in range(3)
    )
    return mgr, f


def test_identity_order_is_noop_in_size():
    mgr, f = classic()
    ordered, g = classic(list(range(6)))
    assert ordered.size(g) == mgr.size(f)


def test_interleaving_shrinks_the_classic_function():
    blocked, f = classic()
    paired, g = classic(PAIRED)
    assert paired.order() == PAIRED
    assert paired.size(g) < blocked.size(f)
    # Same variables, same function: only the level of each moved.
    for m in range(1 << 6):
        bits = [(m >> i) & 1 for i in range(6)]
        assert paired.eval(g, bits) == blocked.eval(f, bits)


def test_bad_permutation_rejected():
    mgr = BddManager(6)
    with pytest.raises(BddError):
        mgr.set_order([0, 0, 1, 2, 3, 4])
    mgr, f = classic()
    with pytest.raises(BddError):  # multi-level nodes exist: too late
        mgr.set_order(PAIRED)


def test_multiple_roots_share_nodes():
    mgr = BddManager(4)
    f = mgr.apply_and(mgr.var(0), mgr.var(1))
    g = mgr.apply_or(f, mgr.var(2))
    shared = mgr.shared_size([f, g])
    assert shared <= mgr.size(f) + mgr.size(g)
    assert shared >= 2


def test_static_order_places_each_gate_above_its_cone():
    circuit = load_figure_circuit("fig1a")  # y = c | (y & a), c = a & b
    order = static_order(circuit)
    assert sorted(order) == list(range(circuit.n_signals))
    names = [circuit.signal_name(s) for s in order]
    assert names == ["y", "a", "A", "c", "b", "B"]
