"""Graph construction: regularity, copy structure, cross edges, exports."""

import itertools
import random
import tracemalloc

import pytest

from tripaths.construct import build_structure
from tripaths.errors import DuplicateVertices, RankOutOfRange, SameCopy, WrongFamily
from tripaths.flows import max_internally_disjoint_paths
from tripaths.graphs import (
    AdjacencyView,
    Path,
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
from tripaths.verification import path_violations


def _edge_count(g):
    return sum(map(len, g.nbrs)) // 2


def test_wheel_n4_shape():
    g = build(4, Family.WHEEL)
    assert g.vertex_count == 24
    assert g.degree == 6
    assert all(len(g.nbrs[v]) == 6 for v in range(24))
    assert _edge_count(g) == 72


def test_wheel_n7_rows_stay_compact():
    """Two rows per vertex hold CW_7 in under 2.5 MB; a (w, gi) tuple per
    edge end held about 4.5 MB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build(7, Family.WHEEL)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.vertex_count == 5040 and held < 2.5e6, held


@pytest.mark.parametrize("view_of", [
    full_view, spanning_intra_view, lambda g: copy_union(g, {1, 3}),
    lambda g: spanning_intra_view(g).without(range(0, 120, 7)),
])
def test_degree_counts_the_neighbors(view_of):
    view = view_of(build(5, Family.WHEEL))
    assert all(view.degree(v) == len(view.neighbors(v)) for v in view.vertices())


def test_bss_n4_shape():
    g = build(4, Family.BUBBLE_SORT_STAR)
    assert g.vertex_count == 24
    assert g.degree == 5
    assert _edge_count(g) == 60


def test_adjacency_is_symmetric():
    for family in (Family.WHEEL, Family.BUBBLE_SORT_STAR):
        g = build(4, family)
        for v in range(g.vertex_count):
            for w, gi in zip(g.nbrs[v], g.nbr_gens[v]):
                assert v in g.nbrs[w]
                assert g.nbr_gens[w][g.nbrs[w].index(v)] == gi


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


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_star_image_is_the_third_outside_neighbor(n):
    g = build(n, Family.WHEEL)
    assert len(g.star_image) == g.vertex_count
    assert all(g.star_image[w] == outside_neighbors(g, w)[2] for w in range(g.vertex_count))


def test_star_image_is_empty_without_the_star_generator():
    assert build(5, Family.BUBBLE_SORT_STAR).star_image == ()


@pytest.mark.parametrize("n", [4, 5, 7])
def test_copy_views_hold_the_members_of_their_copies(n):
    """Every set of copies: the union holds exactly their members and the
    deletion exactly the members of the other copies."""
    g = build(n, Family.WHEEL)
    for k in range(1, n + 1):
        for ids in itertools.combinations(range(1, n + 1), k):
            kept = frozenset(v for c in ids for v in g.copy_members[c])
            assert copy_union(g, ids).allowed == kept
            if k < n:
                assert delete_copies(g, ids).allowed == frozenset(range(g.vertex_count)) - kept


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
        assert w in g.nbrs[u]


def test_cross_edges_same_copy_rejected():
    g = build(4, Family.WHEEL)
    with pytest.raises(SameCopy):
        cross_edges(g, 2, 2)


def test_adjacent_pairs_share_no_neighbor():
    g = build(4, Family.WHEEL)
    nbr = [set(row) for row in g.nbrs]
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


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_spanning_intra_view_is_the_bubble_sort_star_graph(n):
    """Dropping (2 n) from the wheel leaves BS_n on the same ranks:
    (1 n) and (n-1 n) stay in, and the view's graph has BS_n's rows."""
    g, bs = build(n, Family.WHEEL), build(n, Family.BUBBLE_SORT_STAR)
    view = spanning_intra_view(g)
    assert view.graph.nbrs == bs.nbrs
    for v in range(g.vertex_count):
        assert view.neighbors(v) == list(bs.nbrs[v])


def test_spanning_intra_view_keeps_one_graph():
    """The intra graph is built once per CayleyGraph and every call
    returns a view of that same graph."""
    g = build(5, Family.WHEEL)
    first, second = spanning_intra_view(g), spanning_intra_view(g)
    assert first.graph is second.graph is g.intra_graph
    assert first.graph is not spanning_intra_view(build(5, Family.WHEEL)).graph


def test_spanning_intra_view_of_the_bubble_sort_star_graph_is_the_whole_graph():
    """BS_n has no (2 n) to drop, so its spanning intra view is its full view."""
    g = build(5, Family.BUBBLE_SORT_STAR)
    assert spanning_intra_view(g) == full_view(g)
    assert g.intra_graph is None


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
    assert all(w not in (0, 1) for u in v.vertices() for w in v.neighbors(u))


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
    assert view.neighbors(10) == [11, 12]
    assert view.neighbors(12) == [10, 11]
    assert view.degree(13) == 0
    assert view.graph.vertex_count == 14
    assert view.graph.nbrs[10] == (11, 12)
    assert view.graph.nbrs[0] == ()
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
    False when v is outside it or is joined to u only by a (2 n) edge
    the view's graph leaves out; a u outside the view raises."""
    g = build(5, Family.WHEEL)
    view = view_of(g)
    for u in range(g.vertex_count):
        if not view.contains(u):
            with pytest.raises(RankOutOfRange):
                view.adjacent(u, g.nbrs[u][0])
            continue
        nbrs = set(view.neighbors(u))
        for v in [*range(-1, g.vertex_count + 1), "7"]:
            assert view.adjacent(u, v) == (v in nbrs)
    # (2 5) is left out of the spanning view: its edge is gone there alone
    gi = next(i for i, t in enumerate(g.gens) if (t.i, t.j) == (2, 5))
    w = g.nbrs[0][g.nbr_gens[0].index(gi)]
    assert full_view(g).adjacent(0, w) and not spanning_intra_view(g).adjacent(0, w)


@pytest.mark.parametrize("view_of", [
    full_view, lambda g: copy_union(g, {1}), lambda g: delete_copies(g, {2}),
    lambda g: full_view(g).without({0}), lambda g: copy_union(g, {1, 3}).without({1}),
    lambda g: AdjacencyView({v: list(g.nbrs[v]) for v in g.copy_members[1]}),
])
def test_views_take_int_vertices_only(view_of):
    """A float equal to a vertex of the view is not a vertex: the view
    does not contain it, adjacency to it is False, and the flow functions
    reject it with RankOutOfRange rather than fail indexing with it."""
    g = build(5, Family.WHEEL)
    view = view_of(g)
    u = view.vertices()[1]
    w = view.neighbors(u)[0]
    x = next(x for x in view.vertices() if x != u and not view.adjacent(u, x))
    assert view.contains(w) and view.adjacent(u, w)
    assert not view.contains(float(w)) and not view.adjacent(u, float(w))
    with pytest.raises(RankOutOfRange):
        view.neighbors(float(u))
    with pytest.raises(RankOutOfRange):
        max_internally_disjoint_paths(view, float(u), x)
    with pytest.raises(RankOutOfRange):
        max_internally_disjoint_paths(view, u, float(x))
    # True == 1 and hashes as 1, and False as 0, so neither may pass as
    # those vertices either
    y = next(v for v in view.vertices() if v > 1)
    for b in (True, False):
        assert not view.contains(b) and not view.adjacent(y, b)
        assert path_violations(view, Path((b, y)), "p") == [f"p: vertex {b} outside the view"]
        with pytest.raises(RankOutOfRange):
            view.neighbors(b)
        with pytest.raises(RankOutOfRange):
            max_internally_disjoint_paths(view, b, y)
    one = full_view(g)
    assert one.contains(1) and one.adjacent(g.nbrs[1][-1], 1)
    assert not one.contains(True) and not one.adjacent(g.nbrs[1][-1], True)


@pytest.mark.parametrize("view_of", [
    full_view, spanning_intra_view, lambda g: full_view(g).without(range(0, 120, 7)),
    lambda g: AdjacencyView({v: list(g.nbrs[v]) for v in g.copy_members[1]}),
], ids=["full", "spanning", "without", "adjacency"])
def test_is_walk_takes_view_vertices_and_view_edges(view_of):
    """A walk is a sequence of exact-int vertices of the view, each step
    an edge of the view; it may repeat a vertex.  It is a walk exactly
    when ``path_gaps`` finds no outside member and no gap."""
    g = build(5, Family.WHEEL)
    view = view_of(g)
    u = view.vertices()[1]
    w = view.neighbors(u)[0]
    x = next(x for x in view.vertices() if x != u and not view.adjacent(u, x))
    off = next(v for v in range(-1, g.vertex_count + 1) if not view.contains(v))
    assert view.is_walk((u,)) and view.is_walk((u, w)) and view.is_walk((u, w, u))
    assert not view.is_walk((u, float(w))) and not view.is_walk((float(u), w))
    assert not view.is_walk((u, x)) and not view.is_walk((off,))
    for b in (True, False):
        assert not view.is_walk((b,))
        assert view.is_walk((int(b),)) == view.contains(int(b))
    rng = random.Random(3)
    for _ in range(300):
        vs = [rng.choice(view.vertices())]
        for _ in range(rng.randint(0, 6)):
            # steps of the whole graph, some of which the view lacks
            vs.append(rng.choice(g.nbrs[vs[-1]]))
        if rng.random() < 0.3:
            vs[rng.randrange(len(vs))] = rng.choice([off, float(u), True, rng.randrange(120)])
        assert view.is_walk(vs) == (view.path_gaps(vs) == ([], [])), vs


G5 = build(5, Family.WHEEL)
RANK_TAKERS = {
    "check_rank": lambda v: G5.check_rank(v),
    "perm": lambda v: G5.perm(v),
    "copy_of": lambda v: copy_of(G5, v),
    "outside_neighbors": lambda v: outside_neighbors(G5, v),
    "common_neighbors": lambda v: common_neighbors(G5, (v, 30, 48)),
    "unrank": lambda v: unrank(v, 5),
    "build_structure": lambda v: build_structure(G5, (v, 30, 48)),
}


@pytest.mark.parametrize("taker", sorted(RANK_TAKERS))
@pytest.mark.parametrize("v", [True, False, 2.0], ids=repr)
def test_ranks_are_exact_ints_only(taker, v):
    """True, False and 2.0 equal ranks 1, 0 and 2, but a graph that took
    them would answer for those vertices or fail indexing with them."""
    with pytest.raises(RankOutOfRange):
        RANK_TAKERS[taker](v)


@pytest.mark.parametrize("call, error, message", [
    (lambda g: copy_union(g, ()), ValueError, "empty copy set"),
    (lambda g: copy_union(g, {0, 1}), RankOutOfRange, "copy id 0 outside [1, 4]"),
    (lambda g: delete_copies(g, {5}), RankOutOfRange, "copy id 5 outside [1, 4]"),
    (lambda g: delete_copies(g, {1, 2, 3, 4}), ValueError, "deleting every copy leaves nothing"),
    (lambda g: cross_edges(build(4, Family.BUBBLE_SORT_STAR), 1, 2),
     WrongFamily, "cross-edge enumeration is defined for the wheel family"),
    (lambda g: common_neighbors(g, [0]), ValueError, "common neighbors take 2 or 3 vertices, got 1"),
    (lambda g: common_neighbors(g, [0, 1, 2, 3]),
     ValueError, "common neighbors take 2 or 3 vertices, got 4"),
    (lambda g: common_neighbors(g, [0, 5, 0]), DuplicateVertices, "vertex 0 appears twice"),
], ids=["empty-copy-set", "copy-id-0", "copy-id-past-n", "every-copy-deleted",
        "cross-edges-on-bss", "one-common-vertex", "four-common-vertices", "repeated-vertex"])
def test_graph_input_checks(call, error, message):
    with pytest.raises(error) as info:
        call(build(4, Family.WHEEL))
    assert str(info.value) == message
