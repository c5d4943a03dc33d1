"""The structural invariant suite as a library call."""

from collections import Counter

import pytest

from tripaths.graphs import build, outside_neighbors
from tripaths.lemmas import run_lemma_suite
from tripaths.perms import Family, Permutation, compose, rank


def test_suite_n4_all_pass():
    rows = run_lemma_suite(4)
    assert rows, "empty suite"
    for row in rows:
        assert row.passed, (row.name, row.detail)
    names = {row.name for row in rows}
    assert "cross-edge-counts" in names
    assert "connectivity-bss-n4" in names
    assert "copy-all-pairs-connectivity" in names
    assert "connectivity-minus-one-copy" in names
    assert "copy-union-connectivity" in names


def test_suite_n5_all_pass():
    rows = run_lemma_suite(5)
    for row in rows:
        assert row.passed, (row.name, row.detail)


def test_injected_fault_is_caught():
    rows = run_lemma_suite(4, inject_fault=True)
    failed = [row for row in rows if not row.passed]
    assert failed
    assert any(row.name == "cross-edge-counts" for row in failed)


def _rotations(g):
    """Every cyclic triple (A, B, C, j) with B = A t and C = B t, where the
    3-cycle t sends 1 -> j -> j + 1 -> 1 and 2 <= j <= n - 2."""
    n = g.n
    for j in range(2, n - 1):
        images = list(range(1, n + 1))
        images[0], images[j - 1], images[j] = j, j + 1, 1
        t = Permutation(tuple(images))
        for A in range(g.vertex_count):
            pb = compose(g.perm(A), t)
            yield A, rank(pb), rank(compose(pb, t)), j


@pytest.mark.parametrize("n", [5, 7])
def test_cyclic_rotation_outside_neighbors(n):
    # the facts construct._route_cyclic and _route_cyclic_bridge rely on
    g = build(n, Family.WHEEL)
    cp = g.copy_id
    seen = 0
    for A, B, C, j in _rotations(g):
        seen += 1
        K = cp[A]
        assert cp[B] == cp[C] == K
        outs = [outside_neighbors(g, V) for V in (A, B, C)]
        assert len({w for o in outs for w in o}) == 9, (A, j)
        (aP, aM, aS), (bP, bM, bS), (cP, cM, cS) = outs
        if j in (2, n - 2):
            # the paired regions of _route_cyclic
            if j == 2:
                regions = [(aP, cS), (aS, bP), (bS, cP), (bM, cM)]
            else:
                regions = [(aP, bM), (bP, cM), (aM, cP), (bS, cS)]
            assert all(cp[u] == cp[v] != K for u, v in regions), (A, j)
            assert len({cp[u] for u, _v in regions}) == 4, (A, j)
        else:
            assert cp[aM] == cp[bM] == cp[cM], (A, j)
            assert cp[aS] == cp[bS] == cp[cS], (A, j)
            assert len({cp[aP], cp[bP], cp[cP]}) == 3, (A, j)
    assert seen == g.vertex_count * (n - 3)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_common_neighbors_from_vertex_zero(n):
    # construct._two_copies leans on these above the n <= 5 suite: two
    # vertices share at most 3 neighbours, and adjacent ones none; and
    # construct._plan_3_1 on this: two vertices share at most one outside
    # neighbour.  Left multiplication is an automorphism that keeps
    # generator labels, so vertex 0 stands for every vertex
    g = build(n, Family.WHEEL)
    shared = Counter(w for v in g.nbrs[0] for w in g.nbrs[v] if w != 0)
    assert max(shared.values()) <= 3
    assert [v for v in g.nbrs[0] if shared[v]] == []
    shared_out = Counter(x for w in outside_neighbors(g, 0)
                         for x in outside_neighbors(g, w) if x != 0)
    assert max(shared_out.values()) == 1
