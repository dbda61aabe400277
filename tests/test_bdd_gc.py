"""Garbage collection, roots and checkpoints."""

import pytest

from repro.bdd.manager import TRUE, BddManager
from repro.errors import BddError

NV = 6


def table(mgr, f):
    return [mgr.eval(f, [(m >> i) & 1 for i in range(NV)]) for m in range(1 << NV)]


def blocked_function(mgr):
    """(x0<->x3)&(x1<->x4)&(x2<->x5): large under the identity order."""
    return mgr.and_all(mgr.apply_iff(mgr.var(i), mgr.var(i + 3)) for i in range(3))


def test_collect_frees_garbage_and_keeps_roots():
    mgr = BddManager(NV)
    keep = blocked_function(mgr)
    reference = table(mgr, keep)
    for i in range(NV - 1):  # garbage nobody roots
        mgr.apply_xor(mgr.var(i), mgr.var(i + 1))
    before = mgr.n_nodes
    mgr.add_root(keep)
    freed = mgr.collect()
    assert freed > 0
    assert mgr.n_nodes < before  # node count shrank after collection
    assert mgr.n_nodes == mgr.size(keep) + 1  # live nodes + terminal
    assert table(mgr, keep) == reference
    assert mgr.stats.n_gc_passes == 1


def test_collect_accepts_transient_roots():
    mgr = BddManager(NV)
    f = mgr.apply_and(mgr.var(0), mgr.var(1))
    reference = table(mgr, f)
    mgr.collect(roots=[f])  # not registered, passed explicitly
    assert table(mgr, f) == reference
    assert mgr.n_nodes == mgr.size(f) + 1


def test_collect_invalidates_operation_cache():
    mgr = BddManager(NV)
    f = mgr.apply_and(mgr.var(0), mgr.var(1))
    assert mgr._cache  # the apply populated it
    mgr.add_root(f)
    mgr.collect()
    assert not mgr._cache  # freed ids may be re-used: cache must go
    # Re-running ops after the collect must still be correct.
    g = mgr.apply_and(mgr.var(0), mgr.var(1))
    assert g == f


def test_freed_slots_are_reused():
    mgr = BddManager(NV)
    mgr.add_root(mgr.apply_or(mgr.var(0), mgr.var(1)))
    for i in range(NV - 1):
        mgr.apply_xor(mgr.var(i), mgr.var(i + 1))
    slots_before = len(mgr._var)
    mgr.collect()
    # New allocations must fill the freed slots, not grow the arrays.
    mgr.apply_xor(mgr.var(2), mgr.var(3))
    assert len(mgr._var) == slots_before


def test_root_registration_is_counted():
    mgr = BddManager(2)
    f = mgr.apply_and(mgr.var(0), mgr.var(1))
    mgr.add_root(f)
    mgr.add_root(f)
    mgr.remove_root(f)
    mgr.collect()
    assert mgr.n_nodes == mgr.size(f) + 1  # still protected
    mgr.remove_root(f)
    with pytest.raises(BddError):
        mgr.remove_root(f)


def test_checkpoint_auto_gc_keeps_live_nodes_bounded():
    mgr = BddManager(NV, auto_gc_nodes=48)
    keep = mgr.add_root(blocked_function(mgr))
    reference = table(mgr, keep)
    peak_live = 0
    for round_ in range(40):
        # A multi-node transient per round that immediately becomes
        # garbage (the offset varies so the unique table can't reuse it).
        offset = round_ % (NV - 1) + 1
        mgr.and_all(
            mgr.apply_xor(mgr.var(i), mgr.var((i + offset) % NV))
            for i in range(NV)
        )
        mgr.checkpoint()
        peak_live = max(peak_live, mgr.n_nodes)
    assert mgr.stats.n_gc_passes >= 2
    # Bounded: the threshold plus one round of garbage, not 40 rounds.
    assert peak_live <= 2 * 48
    assert table(mgr, keep) == reference


def test_gc_stress_interleaved_with_ops():
    """Alternating garbage production, collections and new structure:
    node counts shrink at every collect and results stay exact."""
    mgr = BddManager(NV)
    acc = mgr.add_root(TRUE)
    for i in range(NV):
        mgr.remove_root(acc)
        acc = mgr.add_root(mgr.apply_and(acc, mgr.apply_or(mgr.var(i), mgr.nvar((i + 1) % NV))))
        for j in range(NV - 1):  # garbage storm
            mgr.apply_xor(mgr.var(j), mgr.var(j + 1))
        before = mgr.n_nodes
        mgr.collect()
        assert mgr.n_nodes <= before
        assert mgr.n_nodes == mgr.size(acc) + 1
    expected = [
        int(all((m >> i) & 1 or not (m >> ((i + 1) % NV)) & 1 for i in range(NV)))
        for m in range(1 << NV)
    ]
    assert table(mgr, acc) == expected


def test_complement_edges_share_nodes():
    mgr = BddManager(4)
    f = mgr.apply_and(mgr.var(0), mgr.var(1))
    nf = mgr.apply_not(f)
    assert nf == (f ^ 1)  # O(1) complement
    assert mgr.apply_not(nf) == f
    # f and ~f share every node: the complement allocates nothing.
    before = mgr.n_nodes
    mgr.apply_not(f)
    assert mgr.n_nodes == before
    assert mgr.size(f) == mgr.size(nf)


def test_cube_matches_and_all():
    mgr = BddManager(5)
    assignment = {0: 1, 2: 0, 4: 1}
    direct = mgr.cube(assignment)
    via_ops = mgr.and_all(
        mgr.var(v) if bit else mgr.nvar(v) for v, bit in assignment.items()
    )
    assert direct == via_ops


def test_flip_var_is_substitution():
    mgr = BddManager(3)
    f = mgr.ite(mgr.var(1), mgr.var(0), mgr.var(2))
    flipped = mgr.flip_var(f, 1)
    assert flipped == mgr.ite(mgr.nvar(1), mgr.var(0), mgr.var(2))
    assert mgr.flip_var(flipped, 1) == f
    assert mgr.flip_var(f, 0) == mgr.ite(mgr.var(1), mgr.nvar(0), mgr.var(2))
