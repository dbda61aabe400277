"""Store facts of the append-only manager: complement edges, direct
cubes and cofactor flips."""

from repro.bdd.manager import BddManager


def test_complement_edges_share_nodes():
    mgr = BddManager(4)
    f = mgr.apply_and(mgr.var(0), mgr.var(1))
    nf = mgr.apply_not(f)
    assert nf == (f ^ 1)  # O(1) complement
    assert mgr.apply_not(nf) == f
    # f and ~f share every node: the complement allocates nothing.
    before = mgr.stats.n_allocated
    mgr.apply_not(f)
    assert mgr.stats.n_allocated == before
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
