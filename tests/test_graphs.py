"""Graph construction: regularity, copy structure, cross edges, exports."""

import itertools
import random

import pytest

from tripaths.errors import RankOutOfRange, SameCopy, WrongFamily
from tripaths.flows import max_internally_disjoint_paths
from tripaths.graphs import (
    AdjacencyView,
    View,
    build,
    common_neighbors,
    copy_of,
    copy_union,
    cross_edges,
    delete_copies,
    full_view,
    outside_neighbors,
    spanning_intra_view,
    to_dot,
    to_edgelist,
)
from tripaths.perms import Family, Transposition, apply_generator, rank, unrank


def _edge_count(g):
    return sum(len(g.adj[v]) for v in range(g.vertex_count)) // 2


def test_wheel_n4_shape():
    g = build(4, Family.WHEEL)
    assert g.vertex_count == 24
    assert g.degree == 6
    assert all(len(g.adj[v]) == 6 for v in range(24))
    assert _edge_count(g) == 72


def test_bss_n4_shape():
    g = build(4, Family.BUBBLE_SORT_STAR)
    assert g.vertex_count == 24
    assert g.degree == 5
    assert _edge_count(g) == 60


def test_adjacency_is_symmetric():
    for family in (Family.WHEEL, Family.BUBBLE_SORT_STAR):
        g = build(4, family)
        for v in range(g.vertex_count):
            for w, _ in g.adj[v]:
                assert any(x == v for x, _ in g.adj[w])


def test_copy_partition():
    g = build(5, Family.WHEEL)
    assert sorted(g.copy_members) == [1, 2, 3, 4, 5]
    total = 0
    for c, members in g.copy_members.items():
        assert len(members) == 24
        total += len(members)
        for v in members:
            assert g.perm(v).images[-1] == c
            assert copy_of(g, v) == c
    assert total == 120


def test_outside_neighbors_of_identity():
    g = build(4, Family.WHEEL)
    e = rank(unrank(0, 4))
    trio = outside_neighbors(g, e)
    texts = [g.vertex_text(v) for v in trio]
    # e(1 4), e(3 4), e(2 4)
    assert texts == ["[4,2,3,1]", "[1,2,4,3]", "[1,4,3,2]"]
    assert len({copy_of(g, v) for v in trio}) == 3


def test_outside_neighbors_symmetry():
    g = build(5, Family.WHEEL)
    rng = random.Random(3)
    for _ in range(50):
        v = rng.randrange(g.vertex_count)
        for w in outside_neighbors(g, v):
            assert v in outside_neighbors(g, w)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_outside_neighbors_match_the_permutation_images(n):
    """The adjacency lookup agrees with applying (1 n), (n-1 n), (2 n)."""
    g = build(n, Family.WHEEL)
    swaps = [Transposition(1, n), Transposition(n - 1, n), Transposition(2, n)]
    for v in range(g.vertex_count):
        sigma = unrank(v, n)
        assert outside_neighbors(g, v) == tuple(
            rank(apply_generator(sigma, t)) for t in swaps)


def test_outside_neighbors_wrong_family():
    g = build(4, Family.BUBBLE_SORT_STAR)
    with pytest.raises(WrongFamily):
        outside_neighbors(g, 0)


def test_cross_edge_counts():
    g4 = build(4, Family.WHEEL)
    for i, j in itertools.combinations(range(1, 5), 2):
        assert len(cross_edges(g4, i, j)) == 6
    g5 = build(5, Family.WHEEL)
    for i, j in itertools.combinations(range(1, 6), 2):
        assert len(cross_edges(g5, i, j)) == 18


def test_cross_edges_are_edges_between_the_copies():
    g = build(4, Family.WHEEL)
    for u, w in cross_edges(g, 2, 3):
        assert {copy_of(g, u), copy_of(g, w)} == {2, 3}
        assert any(x == w for x, _ in g.adj[u])


def test_cross_edges_same_copy_rejected():
    g = build(4, Family.WHEEL)
    with pytest.raises(SameCopy):
        cross_edges(g, 2, 2)


def test_adjacent_pairs_share_no_neighbor():
    g = build(4, Family.WHEEL)
    nbr = [set(w for w, _ in g.adj[v]) for v in range(g.vertex_count)]
    for v in range(g.vertex_count):
        for w in nbr[v]:
            assert not (nbr[v] & nbr[w])


def test_common_neighbors_cap_exhaustive_n4():
    g = build(4, Family.WHEEL)
    worst = 0
    for u, v in itertools.combinations(range(24), 2):
        k = len(common_neighbors(g, (u, v)))
        worst = max(worst, k)
    assert worst == 3


def test_views_restrict_degree():
    g = build(4, Family.WHEEL)
    full = full_view(g)
    assert full.vertex_count == 24
    assert full.degree(0) == 6
    intra = spanning_intra_view(g)
    # drops only the (2 n) generator
    assert intra.degree(0) == 5
    one = copy_union(g, {1})
    assert one.vertex_count == 6
    assert not one.contains(g.copy_members[2][0])
    rest = delete_copies(g, {1})
    assert rest.vertex_count == 18
    for v in g.copy_members[1]:
        assert not rest.contains(v)


def test_view_without():
    g = build(4, Family.WHEEL)
    v = full_view(g).without({0, 1})
    assert v.vertex_count == 22
    assert not v.contains(0)
    assert all(w not in (0, 1) for u in v.vertices() for w, _ in v.neighbors(u))


def test_dot_export():
    g = build(4, Family.WHEEL)
    dot = to_dot(g)
    assert dot.startswith("graph")
    assert dot.count("--") == 72
    assert dot.count("label=") == 24


def test_edgelist_export():
    g = build(4, Family.WHEEL)
    lines = to_edgelist(g).strip().split("\n")
    assert lines[0] == "4 wheel"
    assert len(lines) == 1 + 72
    seen = set()
    for line in lines[1:]:
        u, w = int(line.split()[0]), int(line.split()[1])
        assert u < w
        seen.add((u, w))
    assert len(seen) == 72


def test_adjacency_view_is_a_view_over_its_labels():
    view = AdjacencyView({10: [11, 12], 11: [12], 13: []})
    assert type(view) is View
    assert view.vertices() == [10, 11, 12, 13]
    assert view.neighbors(10) == [(11, -1), (12, -1)]
    assert view.neighbors(12) == [(10, -1), (11, -1)]
    assert view.degree(13) == 0
    assert view.graph.vertex_count == 14
    assert not view.contains(0) and not view.contains(14)
    assert view.without({11}).vertices() == [10, 12, 13]
    assert view.without({11}).graph is view.graph


@pytest.mark.parametrize("adjacency", [
    {10**9: [1]}, {0: [10**9]}, {40320: []}, {-1: [0]}, {"7": [0]}, {0: [2.0]}, {True: [0]},
])
def test_adjacency_view_rejects_labels_outside_the_table(adjacency):
    with pytest.raises(ValueError, match="adjacency label"):
        AdjacencyView(adjacency)


def test_adjacency_view_accepts_the_largest_label():
    view = AdjacencyView({40319: [0]})
    assert view.vertices() == [0, 40319]
    assert view.graph.vertex_count == 40320


@pytest.mark.parametrize("view_of", [
    full_view, spanning_intra_view, lambda g: copy_union(g, {1, 3}),
    lambda g: delete_copies(g, {2}).without(range(0, 120, 7)),
])
def test_adjacent_agrees_with_neighbors(view_of):
    """A pair is adjacent exactly when v is a neighbour of u in the view:
    False when v is outside it or is joined to u only by a masked
    generator; a u outside the view raises."""
    g = build(5, Family.WHEEL)
    view = view_of(g)
    for u in range(g.vertex_count):
        if not view.contains(u):
            with pytest.raises(RankOutOfRange):
                view.adjacent(u, g.adj[u][0][0])
            continue
        nbrs = {w for w, _ in view.neighbors(u)}
        for v in [*range(-1, g.vertex_count + 1), "7"]:
            assert view.adjacent(u, v) == (v in nbrs)
    # (2 5) is masked in the spanning view: its edge is gone there alone
    gi = next(i for i, t in enumerate(g.gens) if (t.i, t.j) == (2, 5))
    w = next(w for w, i in g.adj[0] if i == gi)
    assert full_view(g).adjacent(0, w) and not spanning_intra_view(g).adjacent(0, w)


@pytest.mark.parametrize("view_of", [
    full_view, lambda g: copy_union(g, {1}), lambda g: delete_copies(g, {2}),
    lambda g: full_view(g).without({0}), lambda g: copy_union(g, {1, 3}).without({1}),
    lambda g: AdjacencyView({v: [w for w, _ in g.adj[v]] for v in g.copy_members[1]}),
])
def test_views_take_int_vertices_only(view_of):
    """A float equal to a vertex of the view is not a vertex: the view
    does not contain it, adjacency to it is False, and the flow functions
    reject it with RankOutOfRange rather than fail indexing with it."""
    g = build(5, Family.WHEEL)
    view = view_of(g)
    u = view.vertices()[1]
    w = view.neighbors(u)[0][0]
    x = next(x for x in view.vertices() if x != u and not view.adjacent(u, x))
    assert view.contains(w) and view.adjacent(u, w)
    assert not view.contains(float(w)) and not view.adjacent(u, float(w))
    with pytest.raises(RankOutOfRange):
        view.neighbors(float(u))
    with pytest.raises(RankOutOfRange):
        max_internally_disjoint_paths(view, float(u), x)
    with pytest.raises(RankOutOfRange):
        max_internally_disjoint_paths(view, u, float(x))
