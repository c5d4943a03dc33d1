"""Flow primitives: disjoint path families, fans, cuts, Menger duality."""

import random
from collections import Counter

import pytest

from tripaths.errors import InsufficientConnectivity, RankOutOfRange
from tripaths.flows import (
    _network,
    disjoint_set_paths,
    k_fan,
    local_connectivity,
    max_internally_disjoint_paths,
    min_vertex_cut,
    shortest_path,
    vertex_connectivity,
)
from tripaths.graphs import (
    AdjacencyView,
    Path,
    build,
    copy_union,
    delete_copies,
    full_view,
    spanning_intra_view,
)
from tripaths.perms import Family
from tripaths.tripod import solve_tripod
from tripaths.verification import (
    StructureTarget,
    TripodStructure,
    check_disjoint_set_paths,
    check_fan,
    check_internally_disjoint,
    check_tripod,
    path_violations,
)


def test_path_basics():
    p = Path((3, 7, 2))
    assert p.length == 2
    assert p.reverse().vertices == (2, 7, 3)
    assert p.interior() == (7,)


def test_shortest_path():
    g = build(4, Family.WHEEL)
    view = full_view(g)
    p = shortest_path(view, 0, 23)
    assert p is not None
    assert p.vertices[0] == 0 and p.vertices[-1] == 23
    for u, w in zip(p.vertices, p.vertices[1:]):
        assert view.adjacent(u, w)
    assert shortest_path(view, 0, 23, avoid=set(range(1, 23))) is None


def _reference_shortest_path(view, u, v, avoid=frozenset()):
    """Plain BFS over view.neighbors, scanning neighbours in ascending
    order: the reference shortest_path must match path for path."""
    if u == v:
        return Path((u,))
    parent = {u: None}
    queue = [u]
    for x in queue:
        for w in view.neighbors(x):
            if w in parent or w in avoid:
                continue
            parent[w] = x
            if w == v:
                out = [w]
                while parent[out[-1]] is not None:
                    out.append(parent[out[-1]])
                return Path(tuple(reversed(out)))
            queue.append(w)
    return None


def _views(n, rng):
    g = build(n, Family.WHEEL)
    return {
        "full": full_view(g),
        "copy-union": copy_union(g, rng.sample(range(1, n + 1), 2)),
        "minus-copy": delete_copies(g, {rng.randint(1, n)}),
        "spanning": spanning_intra_view(g),
        "adjacency": AdjacencyView({v: [rng.randrange(3, 60) for _ in range(2)]
                                    for v in range(3, 60)}),
    }


def test_shortest_path_matches_reference_bfs():
    rng = random.Random(2024)
    unreachable = 0
    for n in (4, 5, 6):
        for kind, view in _views(n, rng).items():
            verts = view.vertices()
            for _ in range(120):
                u, v = rng.choice(verts), rng.choice(verts)
                rest = [w for w in verts if w not in (u, v)]
                avoid = set(rng.sample(rest, rng.randint(0, len(rest) // 3)))
                got = shortest_path(view, u, v, avoid)
                assert got == _reference_shortest_path(view, u, v, avoid), (n, kind, u, v)
                unreachable += got is None
            # every neighbour of u avoided: nothing but the direct edge is left
            u, v = verts[0], verts[-1]
            avoid = set(view.neighbors(u)) - {v}
            got = shortest_path(view, u, v, avoid)
            assert got == _reference_shortest_path(view, u, v, avoid)
            assert got is None or got.vertices == (u, v)
            unreachable += got is None
    assert unreachable > 0


def test_shortest_path_ends_must_lie_in_the_view():
    view = copy_union(build(5, Family.WHEEL), {1})
    inside = view.vertices()[0]
    outside = next(v for v in range(120) if not view.contains(v))
    for u, v in ((inside, outside), (outside, inside), (inside, 120), (-1, inside)):
        with pytest.raises(RankOutOfRange):
            shortest_path(view, u, v)
    with pytest.raises(ValueError, match="cannot be avoided"):
        shortest_path(view, inside, inside, avoid={inside})


def test_shortest_path_ignores_avoided_vertices_outside_the_view():
    view = copy_union(build(5, Family.WHEEL), {1})
    u, v = view.vertices()[0], view.vertices()[-1]
    outside = next(w for w in range(120) if not view.contains(w))
    assert shortest_path(view, u, v, avoid={outside, 120, 10**6, -5}) == shortest_path(view, u, v)


def test_adjacency_view_without_shares_its_network():
    # theta graph: three strands from 0 to 3, plus a chord 1-6
    theta = AdjacencyView({0: [1, 4, 6], 1: [2, 6], 2: [3], 4: [5], 5: [3], 6: [3]})
    cut = theta.without({4})
    fam = max_internally_disjoint_paths(cut, 0, 3)
    assert sorted(p.vertices for p in fam.paths) == [(0, 1, 2, 3), (0, 6, 3)]
    assert _network(cut) is _network(theta)
    target = StructureTarget(1, 1, 1)
    res = solve_tripod(cut, (0, 3, 6), target)
    assert isinstance(res, TripodStructure), res
    assert check_tripod(cut, res, target).ok


def test_connectivity_bss():
    assert vertex_connectivity(full_view(build(3, Family.BUBBLE_SORT_STAR))) == 3
    assert vertex_connectivity(full_view(build(4, Family.BUBBLE_SORT_STAR))) == 5


def test_connectivity_wheel():
    assert vertex_connectivity(full_view(build(4, Family.WHEEL))) == 6


@pytest.mark.parametrize("view", [
    AdjacencyView({0: [1], 2: [3]}),
    AdjacencyView({0: [1, 2], 1: [2], 5: []}),
    AdjacencyView({7: [], 8: []}),
    AdjacencyView({0: [1, 2, 3], 1: [2, 3], 2: [3], 10: [11, 12], 11: [12]}),
    AdjacencyView({0: [1], 1: [2], 20: [21, 22, 23], 21: [22, 23], 22: [23]}),
    AdjacencyView({0: [1], 1: [2], 2: [3], 3: [4], 4: [5], 5: [0]}).without({0, 3}),
])
def test_connectivity_of_a_disconnected_view_is_zero(view):
    assert vertex_connectivity(view) == 0


def test_max_internally_disjoint_paths_hits_degree():
    g = build(4, Family.WHEEL)
    view = full_view(g)
    fam = max_internally_disjoint_paths(view, 0, 23)
    assert len(fam.paths) == 6
    verdict = check_internally_disjoint(view, 0, 23, fam)
    assert verdict.ok, verdict.violations
    assert max_internally_disjoint_paths(view, 0, 23, limit=0).paths == ()
    with pytest.raises(ValueError):
        max_internally_disjoint_paths(view, 0, 23, limit=-2)


def _separated(view, u, v, direct=False) -> bool:
    """No u-v path in `view` (reference BFS), or with `direct` none but
    the edge uv: no path from another neighbour of u to v that avoids u."""
    starts = [w for w in view.neighbors(u) if w != v] if direct else [u]
    return all(_reference_shortest_path(view, w, v, avoid={u}) is None for w in starts)


def test_menger_duality_seeded_pairs():
    """Each pair cut is as large as the flow it reads: on CW_4 and on two
    copies of CW_6 (240 vertices, searched from both ends), removing it
    leaves no u-v path, or for an adjacent pair only the direct edge."""
    rng = random.Random(11)
    for view in (full_view(build(4, Family.WHEEL)), copy_union(build(6, Family.WHEEL), {1, 2})):
        verts = view.vertices()
        checked = Counter()
        while checked[False] < 60 or checked[True] < 20:
            u, v = rng.choice(verts), rng.choice(verts)
            adjacent = u != v and view.adjacent(u, v)
            if u == v or checked[adjacent] >= (20 if adjacent else 60):
                continue
            fam = max_internally_disjoint_paths(view, u, v)
            cut = min_vertex_cut(view, u, v)
            assert cut.adjacent == adjacent
            assert len(fam.paths) == len(cut.vertices) + adjacent
            assert u not in cut.vertices and v not in cut.vertices
            assert _separated(view.without(set(cut.vertices)), u, v, direct=adjacent)
            checked[adjacent] += 1


@pytest.mark.parametrize("view", [full_view(build(5, Family.WHEEL)),
                                  copy_union(build(6, Family.WHEEL), {1, 2, 3})],
                         ids=["cw5", "cw6-three-copies"])
def test_disjoint_set_paths_shortfall_cut_separates(view):
    """X is a vertex with its neighbours, and of the vertices next to X
    only two with two or more neighbours in X stay: the shortfall's cut
    is those two, one per path found, and removing it leaves no X-Y
    path."""
    a = view.vertices()[0]
    xs = [a, *view.neighbors(a)]
    ring = sorted({w for x in xs for w in view.neighbors(x)} - set(xs))
    keep = [w for w in ring if len(set(view.neighbors(w)) & set(xs)) > 1][:2]
    view = view.without(set(ring) - set(keep))
    ys = [w for w in view.vertices() if w not in xs and w not in keep][-len(xs):]
    with pytest.raises(InsufficientConnectivity) as info:
        disjoint_set_paths(view, xs, ys, len(xs))
    cut = info.value.witness_cut
    assert cut == tuple(keep)
    assert len(info.value.achieved.paths) == len(cut)
    left = view.without(cut)
    assert all(_reference_shortest_path(left, x, y) is None for x in xs for y in ys)


@pytest.mark.parametrize("n", [4, 6])
def test_k_fan_shortfall_cut_names_the_targets_it_reached(n):
    """One target has no neighbour left and the others are all reached:
    the cut names each reached target by its arc into the sink."""
    view = full_view(build(n, Family.WHEEL))
    last = view.vertices()[-1]
    cut_off = view.without(view.neighbors(last))
    reached = cut_off.vertices()[-4:-1]
    with pytest.raises(InsufficientConnectivity) as info:
        k_fan(cut_off, 0, [last, *reached], 4)
    assert info.value.witness_cut == tuple(reached)
    assert len(info.value.achieved.paths) == 3


def test_local_connectivity_adjacent_pair():
    g = build(4, Family.WHEEL)
    view = full_view(g)
    # adjacent vertices: direct edge counts as one path
    v = g.nbrs[0][0]
    assert local_connectivity(view, 0, v) == 6


def test_k_fan():
    g = build(4, Family.WHEEL)
    view = full_view(g)
    targets = [5, 9, 17, 20]
    fam = k_fan(view, 0, targets, 4)
    verdict = check_fan(view, 0, targets, fam, 4)
    assert verdict.ok, verdict.violations
    ends = sorted(p.vertices[-1] for p in fam.paths)
    assert ends == sorted(targets)


def test_k_fan_source_adjacent_target():
    g = build(4, Family.WHEEL)
    view = full_view(g)
    targets = list(g.nbrs[0][:3])
    fam = k_fan(view, 0, targets, 3)
    verdict = check_fan(view, 0, targets, fam, 3)
    assert verdict.ok, verdict.violations


def _capacitated_fan_ends(view, x, caps, fam):
    """Ends of a fan whose targets may end several paths, checked
    against the fan rule: view paths from x to a target, no target or x
    inside a path, no interior vertex or edge on two paths."""
    interiors, edges = [], []
    for p in fam.paths:
        assert path_violations(view, p, "p") == []
        assert p.vertices[0] == x and p.vertices[-1] in caps
        assert not set(p.interior()) & (set(caps) | {x})
        interiors += p.interior()
        vs = p.vertices
        edges += [(u, w) if u < w else (w, u) for u, w in zip(vs, vs[1:])]
    assert len(interiors) == len(set(interiors)) and len(edges) == len(set(edges))
    return Counter(p.vertices[-1] for p in fam.paths)


# 0 reaches 10 through 1, 2 and 4, and 11 through 4-5 or 3-12; with 12 a
# target the route 3-12-11 is closed, so 4 decides between 10 and 11
FAN_VIEW = AdjacencyView({0: [1, 2, 3, 4], 1: [10], 2: [10], 3: [12], 12: [11],
                          4: [10, 5], 5: [11]})


def test_k_fan_capacities_end_exactly_their_paths():
    caps = {10: 2, 11: 1, 12: 0}
    fam = k_fan(FAN_VIEW, 0, caps, 3)
    assert _capacitated_fan_ends(FAN_VIEW, 0, caps, fam) == {10: 2, 11: 1}
    assert [4, 5, 11] in [list(p.vertices[1:]) for p in fam.paths]
    # a sequence gives every target capacity 1
    assert k_fan(FAN_VIEW, 0, [10, 11, 12], 3) == k_fan(FAN_VIEW, 0, {10: 1, 11: 1, 12: 1}, 3)
    with pytest.raises(ValueError, match="capacity"):
        k_fan(FAN_VIEW, 0, caps, 4)
    with pytest.raises(ValueError, match="k must be non-negative"):
        k_fan(full_view(build(5, Family.WHEEL)), 0, [1, 2], -3)
    with pytest.raises(ValueError, match="non-negative"):
        k_fan(FAN_VIEW, 0, {10: 3, 11: -1}, 2)


def test_k_fan_capacity_shortfall_names_its_cut():
    # 10 could end three paths, but 1, 2 and 4 are the only ways out of
    # 0 that avoid the targets, and each ends one path
    with pytest.raises(InsufficientConnectivity) as info:
        k_fan(FAN_VIEW, 0, {10: 3, 11: 1, 12: 0}, 4)
    assert info.value.witness_cut == (1, 2, 4)
    assert len(info.value.achieved.paths) == 3
    # without 12 among the targets, 3-12-11 opens and all four fit
    fam = k_fan(FAN_VIEW, 0, {10: 3, 11: 1}, 4)
    assert _capacitated_fan_ends(FAN_VIEW, 0, {10: 3, 11: 1}, fam) == {10: 3, 11: 1}


def test_k_fan_capacities_on_a_cw5_copy_union():
    g = build(5, Family.WHEEL)
    view = copy_union(g, {1, 2})
    x = g.copy_members[1][0]
    far1 = [v for v in g.copy_members[1][10:] if not view.adjacent(x, v)]
    caps = {far1[0]: 2, far1[5]: 2, g.copy_members[2][7]: 1}
    for seed in (None, 3):
        fam = k_fan(view, x, caps, 5, order_seed=seed)
        assert _capacitated_fan_ends(view, x, caps, fam) == caps
    with pytest.raises(ValueError, match="capacity 6, got 5"):
        k_fan(view, x, caps, 6)
    nbrs = view.neighbors(x)
    starved = view.without(nbrs[2:])
    with pytest.raises(InsufficientConnectivity) as info:
        k_fan(starved, x, caps, 3)
    assert info.value.witness_cut == tuple(nbrs[:2])
    assert _capacitated_fan_ends(starved, x, caps, info.value.achieved).total() == 2


def test_disjoint_set_paths():
    g = build(4, Family.WHEEL)
    view = full_view(g)
    xs = [0, 1, 2, 3]
    ys = [20, 21, 22, 23]
    fam = disjoint_set_paths(view, xs, ys, 4)
    verdict = check_disjoint_set_paths(view, xs, ys, fam, 4)
    assert verdict.ok, verdict.violations
    assert sorted(p.vertices[-1] for p in fam.paths) == ys


def test_disjoint_set_paths_overlap_zero_length():
    g = build(4, Family.WHEEL)
    view = full_view(g)
    xs = [0, 5, 9]
    ys = [9, 14, 0]
    fam = disjoint_set_paths(view, xs, ys, 3)
    verdict = check_disjoint_set_paths(view, xs, ys, fam, 3)
    assert verdict.ok, verdict.violations
    lengths = sorted(p.length for p in fam.paths)
    assert lengths[0] == 0 and lengths[1] == 0
    with pytest.raises(ValueError, match="k must be non-negative"):
        disjoint_set_paths(full_view(build(5, Family.WHEEL)), [0, 1, 2], [0, 1, 2], -1)


def test_order_seed_changes_routes_not_counts():
    g = build(4, Family.WHEEL)
    view = full_view(g)
    base = max_internally_disjoint_paths(view, 0, 23)
    saw_different = False
    for seed in range(6):
        fam = max_internally_disjoint_paths(view, 0, 23, order_seed=seed)
        assert len(fam.paths) == len(base.paths)
        verdict = check_internally_disjoint(view, 0, 23, fam)
        assert verdict.ok, verdict.violations
        if sorted(p.vertices for p in fam.paths) != sorted(
                p.vertices for p in base.paths):
            saw_different = True
    assert saw_different


def test_deterministic_given_seed():
    g = build(4, Family.WHEEL)
    view = full_view(g)
    one = max_internally_disjoint_paths(view, 0, 23, order_seed=4)
    two = max_internally_disjoint_paths(view, 0, 23, order_seed=4)
    assert [p.vertices for p in one.paths] == [p.vertices for p in two.paths]


def test_copy_view_connectivity():
    g = build(5, Family.WHEEL)
    # one copy of the n=5 wheel looks like the degree-4 star-plus-adjacent graph
    assert vertex_connectivity(copy_union(g, {3})) == 5
