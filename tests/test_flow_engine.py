"""The flow engine: pinned outputs, isolation between queries, graph build.

``tests/pinned/flows.json`` holds the outputs of every query that
``pinned_outputs`` runs at n = 5 and n = 6, recorded with the per-call
network builder that the shared engine replaced.  The engine must give
the same paths in the same order, the same cuts and the same failures.
``tests/pinned/flows_n7.json`` holds the outputs of ``n7_queries``,
recorded before ``vin`` rows stopped listing reverse arcs that carry no
flow.
"""

import itertools
import json
import random
from dataclasses import asdict
from pathlib import Path as FilePath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripaths import flows
from tripaths.errors import InsufficientConnectivity, RankOutOfRange
from tripaths.flows import (
    _FlowQuery,
    _network,
    disjoint_set_paths,
    k_fan,
    local_connectivity,
    max_internally_disjoint_paths,
    min_vertex_cut,
    vertex_connectivity,
)
from tripaths.graphs import (
    AdjacencyView,
    build,
    copy_of,
    copy_union,
    delete_copies,
    full_view,
    outside_neighbors,
    spanning_intra_view,
)
from tripaths.perms import Family, apply_generator, generator_set, rank, unrank
from tripaths.tripod import (
    StructureTarget,
    TripodFailure,
    _two_phase,
    solve_tripod,
    standard_target,
)

PINNED = FilePath(__file__).parent / "pinned" / "flows.json"
PINNED_N7 = FilePath(__file__).parent / "pinned" / "flows_n7.json"
SEEDS = (None, 5, 1001)


def _paths(fam):
    return [list(p.vertices) for p in fam.paths]


def _call(fn, *args, **kwargs):
    """Outcome of one query as JSON data; a shortfall keeps its message,
    the paths found and the witness cut."""
    try:
        res = fn(*args, **kwargs)
    except InsufficientConnectivity as exc:
        return {"error": str(exc), "achieved": _paths(exc.achieved),
                "witness_cut": list(exc.witness_cut)}
    if hasattr(res, "paths"):
        return _paths(res)
    if hasattr(res, "adjacent"):
        return {"cut": list(res.vertices), "adjacent": res.adjacent}
    if isinstance(res, TripodFailure):
        return asdict(res)
    if hasattr(res, "bundle_ab"):
        return {name: [list(p.vertices) for p in getattr(res, name)]
                for name in ("bundle_ab", "bundle_ac", "bundle_bc")}
    if res is None or isinstance(res, (int, str)):
        return res
    raise TypeError(type(res))


def _views(g, rng):
    holes = rng.sample(range(g.vertex_count), g.vertex_count // 10)
    return {
        "full": full_view(g),
        "union13": copy_union(g, {1, 3}),
        "minus2": delete_copies(g, {2}),
        "intra": spanning_intra_view(g),
        "holes": full_view(g).without(holes),
    }


def _flow_queries(n):
    """(key, function, args, kwargs) for every pinned flow query on the
    n-wheel."""
    g = build(n, Family.WHEEL)
    rng = random.Random(1000 + n)
    out = []

    def add(key, fn, *args, **kwargs):
        out.append((f"n{n}/{key}", fn, args, kwargs))

    for vname, view in _views(g, rng).items():
        verts = view.vertices()
        for _ in range(2):
            u, v = rng.sample(verts, 2)
            w = next(w for w, _ in view.neighbors(u))
            for seed in SEEDS:
                add(f"{vname}/paths/{u}-{v}/s{seed}", max_internally_disjoint_paths,
                    view, u, v, order_seed=seed)
                add(f"{vname}/paths2/{u}-{w}/s{seed}", max_internally_disjoint_paths,
                    view, u, w, limit=2, order_seed=seed)
            for a, b in ((u, v), (u, w)):
                add(f"{vname}/cut/{a}-{b}", min_vertex_cut, view, a, b)
                add(f"{vname}/kappa/{a}-{b}", local_connectivity, view, a, b)

        x = rng.choice(verts)
        targets = rng.sample([t for t in verts if t != x], 5)
        nbrs = [t for t, _ in view.neighbors(x)]
        starved = view.without(nbrs[2:])
        far = rng.sample([t for t in starved.vertices() if t != x and t not in nbrs], 3)
        xs = rng.sample(verts, 4)
        ys = rng.sample([t for t in verts if t not in xs], 3) + xs[:1]
        cut_off = view.without(nbrs)
        xs2 = [x] + rng.sample([t for t in cut_off.vertices() if t != x], 1)
        ys2 = rng.sample([t for t in cut_off.vertices() if t not in xs2], 2)
        for seed in SEEDS:
            add(f"{vname}/fan/{x}/s{seed}", k_fan, view, x, targets, 5, order_seed=seed)
            add(f"{vname}/fan-fails/{x}/s{seed}", k_fan, starved, x, far, 3,
                order_seed=seed)
            add(f"{vname}/sets/s{seed}", disjoint_set_paths, view, xs, ys, 4,
                order_seed=seed)
            add(f"{vname}/sets-fail/s{seed}", disjoint_set_paths, cut_off, xs2, ys2, 2,
                order_seed=seed)
    for copies in ((1,), (2, 4)):
        add(f"connectivity/{copies}", vertex_connectivity, copy_union(g, copies))
    return out


# (n, omega, target, also run solve_tripod): the n = 5 (3, 3, 3) and n = 6
# triples need exchange repair on some pivot and order seed, (2, 4, 4) at
# n = 5 is certified infeasible, and (3, 4, 4) exhausts exchange repair.
TRIPOD_CASES = (
    (5, (20, 96, 57), (3, 3, 3), True),
    (5, (83, 60, 14), (3, 3, 3), True),
    (5, (23, 95, 113), (3, 3, 3), True),
    (5, (57, 1, 9), (2, 4, 4), True),
    (5, (57, 1, 9), (3, 4, 4), False),
    (6, (75, 74, 702), (4, 4, 4), True),
    (6, (8, 467, 586), (4, 4, 4), True),
    (6, (168, 270, 125), (4, 4, 4), True),
)


def _tripod_queries():
    graphs = {n: build(n, Family.WHEEL) for n in (5, 6)}
    out = []
    for n, omega, sizes, solve in TRIPOD_CASES:
        view = spanning_intra_view(graphs[n])
        target = StructureTarget(*sizes)
        key = f"n{n}/{omega}/{sizes}"
        if solve:
            for seed in (0, 1, 1001):
                out.append((f"{key}/tripod/seed{seed}", solve_tripod,
                            (view, omega, target), {"seed": seed}))
        for pivot, order_seed in itertools.product("abc", SEEDS):
            out.append((f"{key}/two-phase/{pivot}/s{order_seed}", _two_phase,
                        (view, omega, target, pivot, order_seed, None), {}))
    return out


def _adjacency_queries():
    theta = AdjacencyView({0: [1, 4, 6], 1: [2], 2: [3], 4: [5], 5: [3], 6: [3]})
    k4 = AdjacencyView({10: [11, 12, 13], 11: [12, 13], 12: [13]})
    out = []
    for seed in SEEDS:
        out.append((f"adj/theta/paths/s{seed}", max_internally_disjoint_paths,
                    (theta, 0, 3), {"order_seed": seed}))
        out.append((f"adj/theta/fan/s{seed}", k_fan, (theta, 0, [2, 5, 6], 3),
                    {"order_seed": seed}))
        out.append((f"adj/k4/sets/s{seed}", disjoint_set_paths, (k4, [10, 11], [12, 13], 2),
                    {"order_seed": seed}))
    out.append(("adj/theta/cut", min_vertex_cut, (theta, 0, 3), {}))
    out.append(("adj/theta/connectivity", vertex_connectivity, (theta,), {}))
    out.append(("adj/k4/connectivity", vertex_connectivity, (k4,), {}))
    return out


def all_queries():
    return _flow_queries(5) + _flow_queries(6) + _tripod_queries() + _adjacency_queries()


def pinned_outputs(queries=None) -> dict:
    return {key: _call(fn, *args, **kwargs)
            for key, fn, args, kwargs in (queries or all_queries())}


def _assert_pinned(path, queries):
    expected = json.loads(path.read_text())
    got = pinned_outputs(queries)
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key


def test_pinned_outputs():
    _assert_pinned(PINNED, all_queries())


# (omega, target) on the n = 7 spanning intra view: exchange repair on
# the first two, a plain solve, and a phase-A shortfall (6 + 6 > 11).
N7_TRIPODS = (
    ((3705, 3711, 3713), (5, 5, 5)),
    ((2080, 2086, 2083), (5, 6, 5)),
    ((3489, 2411, 2374), (4, 4, 4)),
    ((3705, 3711, 3713), (6, 6, 6)),
)


def n7_queries():
    """The n = 7 queries the construction leans on: the same-copy
    outside-detour linkage, fans in a copy union, and solve_tripod."""
    g = build(7, Family.WHEEL)
    rng = random.Random(1007)
    out = []
    K = 3
    for _ in range(2):
        A, B, C = rng.sample(g.copy_members[K], 3)
        detour = next(w for w, _ in g.adj[C] if copy_of(g, w) == K)
        a_out, b_out, c_out = (outside_neighbors(g, v) for v in (A, B, C))
        xs = [*c_out, outside_neighbors(g, detour)[0]]
        ys = [a_out[0], a_out[1], b_out[0], b_out[1]]
        for seed in SEEDS:
            out.append((f"n7/outside-detour/{A}-{B}-{C}/s{seed}", disjoint_set_paths,
                        (delete_copies(g, {K}), xs, ys, 4), {"order_seed": seed}))
    union = copy_union(g, {2, 5})
    x = rng.choice(g.copy_members[2])
    targets = rng.sample([v for v in union.vertices() if v != x], 8)
    nbrs = [w for w, _ in union.neighbors(x)]
    starved = union.without(nbrs[2:])
    far = rng.sample([v for v in starved.vertices() if v != x and v not in nbrs], 3)
    for seed in SEEDS:
        out.append((f"n7/fan/{x}/s{seed}", k_fan, (union, x, targets, 6),
                    {"order_seed": seed}))
        out.append((f"n7/fan-fails/{x}/s{seed}", k_fan, (starved, x, far, 3),
                    {"order_seed": seed}))
    view = spanning_intra_view(g)
    for omega, sizes in N7_TRIPODS:
        for seed in (0, 1):
            out.append((f"n7/tripod/{omega}/{sizes}/seed{seed}", solve_tripod,
                        (view, omega, StructureTarget(*sizes)), {"seed": seed}))
    return out


def test_pinned_outputs_n7():
    _assert_pinned(PINNED_N7, n7_queries())


def _query_a(view):
    return _call(max_internally_disjoint_paths, view, 3, 97, order_seed=5)


def _query_b(view):
    return _call(disjoint_set_paths, view, [1, 2, 3], [50, 60, 70], 3)


def _raising_query(view):
    """A fan from 0 that keeps one neighbour of 0 and needs two paths."""
    nbrs = [w for w, _ in view.neighbors(0)]
    starved = view.without(nbrs[1:])
    targets = [t for t in starved.vertices() if t != 0 and t not in nbrs][-2:]
    out = _call(k_fan, starved, 0, targets, 2)
    assert "error" in out
    return out


def test_queries_leave_the_shared_network_clean():
    view = full_view(build(5, Family.WHEEL))
    first = _query_a(view)
    _raising_query(view)
    b = _query_b(view)
    assert _query_a(view) == first
    _raising_query(view)
    assert _query_b(view) == b
    assert _query_a(full_view(build(5, Family.WHEEL))) == first


def _net_bytes(net):
    return net.cap.tobytes(), net.to.tobytes(), [row.tobytes() for row in net.rows]


def test_queries_restore_the_shared_arrays():
    g = build(5, Family.WHEEL)
    view = full_view(g)
    _query_a(view)
    net = _network(view)
    before = _net_bytes(net)
    _raising_query(view)
    _query_b(view.without({5, 6}))
    _call(_two_phase, view, (0, 50, 100), StructureTarget(3, 3, 3), "b", 7, None)
    assert not net.busy
    assert _net_bytes(net) == before


def _vin_to_vin(q):
    q.add_arc(q.vin(1), q.vin(2), 1)


def _sink_from_vout(q):
    q.add_arc(q.vout(1), q.sink, 1)


def _source_to_sink(q):
    q.add_arc(q.source, q.sink, 1)


def _flow_from_vin(q):
    q.add_arc(q.source, q.vin(4), 1)
    q.max_flow(q.vin(3), q.sink, 1)


@pytest.mark.parametrize("misuse", [_vin_to_vin, _sink_from_vout, _source_to_sink,
                                    _flow_from_vin], ids=lambda fn: fn.__name__[1:])
def test_arcs_and_flows_that_skip_the_vin_side_are_rejected(misuse):
    """The BFS expands vin nodes on discovery, which needs every arc to
    join a vin node to the other side and the search to start off it."""
    view = full_view(build(5, Family.WHEEL))
    first = _query_a(view)
    net = _network(view)
    before = _net_bytes(net)
    with pytest.raises(ValueError, match="vin"):
        with _FlowQuery(view, order_seed=3, entry_blocked=(0,), no_split=(7,)) as q:
            misuse(q)
    assert not net.busy and _net_bytes(net) == before
    assert _query_a(view) == first
    _raising_query(view)
    assert _query_a(full_view(build(5, Family.WHEEL))) == first


def _plain_bfs(rows, to, cap, parent, s, t):
    """Textbook FIFO BFS over every node of the split network."""
    parent[s] = -2
    queue = [s]
    for u in queue:
        for e in rows[u]:
            w = to[e]
            if parent[w] == -1 and cap[e] > 0:
                parent[w] = e
                if w == t:
                    return
                queue.append(w)


def _path_arcs(parent, to, s, t):
    if parent[t] < 0:
        return None
    arcs, node = [], t
    while node != s:
        arcs.append(parent[node])
        node = to[parent[node] ^ 1]
    return arcs


G5 = build(5, Family.WHEEL)


@st.composite
def _flow_cases(draw):
    if draw(st.booleans()):
        k = draw(st.integers(2, 12))
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * k))
        adjacency = {v: [] for v in range(k)}
        for a, b in edges:
            adjacency[a].append(b)
        view = AdjacencyView(adjacency)
    else:
        copies = draw(st.sets(st.integers(1, 5), min_size=1, max_size=4))
        view = draw(st.sampled_from([full_view(G5), spanning_intra_view(G5),
                                     copy_union(G5, copies), delete_copies(G5, copies)]))
    verts = view.vertices()
    pick = st.sampled_from(verts)
    some = st.lists(pick, max_size=4, unique=True)
    edits = {name: draw(some) for name in
             ("entry_blocked", "exit_blocked", "no_split", "uncapped", "removed")}
    edits["order_seed"] = draw(st.one_of(st.none(), st.integers(0, 2**32)))
    u, v, a = draw(pick), draw(pick), draw(pick)
    nbrs = [w for w, _ in view.neighbors(a)]
    dropped = (a, draw(st.sampled_from(nbrs))) if nbrs and draw(st.booleans()) else None
    sources, sinks = draw(some), draw(some)
    return (view, edits, dropped, sources, sinks, draw(st.booleans()), u,
            draw(st.booleans()), v, draw(st.integers(1, 6)))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=_flow_cases())
def test_bfs_finds_the_plain_fifo_augmenting_paths(case):
    """Every BFS of a query, augmentations and the witness cut's reach
    alike, must find what a plain FIFO BFS over the same residual finds:
    the same augmenting path, or, run to exhaustion, the same parents."""
    view, edits, dropped, sources, sinks, from_source, u, to_sink, v, limit = case
    kernel = flows._bfs
    runs = []

    def checked(rows, to, cap, parent, s, t):
        plain = parent[:]
        kernel(rows, to, cap, parent, s, t)
        _plain_bfs(rows, to, cap, plain, s, t)
        if t == -1:
            assert parent == plain
        else:
            assert _path_arcs(parent, to, s, t) == _path_arcs(plain, to, s, t)
        runs.append(t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_bfs", checked)
        with _FlowQuery(view, **edits) as q:
            for x in sources:
                q.add_arc(q.source, q.vin(x), 1)
            for y in sinks:
                q.add_arc(q.vin(y), q.sink, 1)
            if dropped is not None:
                q.drop_edge(*dropped)
            s = q.source if from_source else q.vout(u)
            t = q.sink if to_sink else q.vin(v)
            q.max_flow(s, t, limit)
            q.witness_cut(s, set())
    assert runs and runs[-1] == -1


def _flowing_edges(net) -> set:
    """Static edge arcs that carry a unit: their reverse arc is open."""
    cap = net.cap
    return {k for k in range(2 * net.vertex_count, net.arc_count, 2) if cap[k + 1] > 0}


def _assert_rows(net) -> None:
    """Each vin row: its split arc, the reverse arcs of the edges into it
    that carry flow in ascending order, then its terminal arcs.  Each vout
    row starts with its split reverse arc exactly while the split arc
    carries flow, and lists it nowhere else."""
    to, cap = net.to, net.cap
    reverse = {}
    for k in sorted(_flowing_edges(net)):
        reverse.setdefault(to[k], []).append(k + 1)
    terminal = {}
    for e in range(net.arc_count, len(to)):
        terminal.setdefault(to[e ^ 1], []).append(e)
    for i in range(net.vertex_count):
        node = 2 * i
        assert list(net.rows[node]) == [node] + reverse.get(node, []) + terminal.get(node, [])
        vout = list(net.rows[node + 1])
        carries = cap[node + 1] > 0
        assert vout.count(node + 1) == carries and (vout[:1] == [node + 1]) == carries


def test_rows_list_reverse_arcs_only_while_they_carry_flow(monkeypatch):
    """Push one unit at a time inside live queries and check the vin and
    vout rows after every push, through exchange repair and shortfalls."""
    seen = {"pushes": 0, "cancels": 0, "split_cancels": 0, "shortfalls": 0}
    push_units = _FlowQuery.max_flow

    def split_flow(net):
        return {v for v in range(net.vertex_count) if net.cap[2 * v + 1] > 0}

    def stepped(self, s, t, limit, counter=None):
        value = 0
        while value < limit:
            before, before_split = _flowing_edges(self.net), split_flow(self.net)
            if not push_units(self, s, t, 1, counter):
                seen["shortfalls"] += 1
                break
            value += 1
            seen["pushes"] += 1
            seen["cancels"] += bool(before - _flowing_edges(self.net))
            seen["split_cancels"] += bool(before_split - split_flow(self.net))
            _assert_rows(self.net)
        return value

    monkeypatch.setattr(_FlowQuery, "max_flow", stepped)
    for key, fn, args, kwargs in _tripod_queries():
        if key.startswith("n5/") and "/two-phase/" in key:
            fn(*args, **kwargs)
    _raising_query(full_view(build(5, Family.WHEEL)))
    # the unique shortest path 0-1-2-3-9 blocks both longer strands, so
    # the second push cancels it and leaves vertex 2 without flow
    strands = AdjacencyView({0: [1, 4], 1: [2, 5], 2: [3], 3: [9], 4: [6], 6: [8], 8: [3],
                             5: [7], 7: [10], 10: [9]})
    assert _paths(max_internally_disjoint_paths(strands, 0, 9)) == [
        [0, 1, 5, 7, 10, 9], [0, 4, 6, 8, 3, 9]]
    assert seen["cancels"] > 0 and seen["split_cancels"] > 0 and seen["shortfalls"] > 0, seen


@pytest.mark.parametrize("seed", [0, 1, 5, 1001, 2**40 + 3])
def test_seeded_rows_follow_random_shuffle(seed):
    """The order a seed gives a row is ``random.Random(seed).shuffle`` of
    the row, for rows of every length: the centre of a star is the first
    vertex shuffled, and its leaves' one-arc rows draw nothing."""
    for leaves in [*range(21), 100]:
        star = AdjacencyView({0: list(range(1, leaves + 1))})
        expected = list(_network(star).rows[1])
        random.Random(seed).shuffle(expected)
        with _FlowQuery(star, order_seed=seed) as q:
            assert list(q.net.rows[q.vout(0)]) == expected, leaves


def test_interleaved_graphs_do_not_share_state():
    g5, g6, g5_bss = (build(5, Family.WHEEL), build(6, Family.WHEEL),
                      build(5, Family.BUBBLE_SORT_STAR))
    before = [_query_a(full_view(g)) for g in (g5, g6, g5_bss)]
    before_intra = _query_a(spanning_intra_view(g6))
    for g in (g6, g5_bss, g5):
        _raising_query(full_view(g))
    assert [_query_a(full_view(g)) for g in (g5, g6, g5_bss)] == before
    assert _query_a(spanning_intra_view(g6)) == before_intra


def test_tripod_after_failed_flow_is_unchanged():
    g = build(6, Family.WHEEL)
    view = spanning_intra_view(g)
    omega = (0, 300, 611)
    first = _call(solve_tripod, view, omega, standard_target(6), seed=3)
    _raising_query(view)
    assert _call(solve_tripod, view, omega, standard_target(6), seed=3) == first


@pytest.mark.parametrize("family,n", [(Family.BUBBLE_SORT_STAR, 3), (Family.BUBBLE_SORT_STAR, 4),
                                      (Family.BUBBLE_SORT_STAR, 5), (Family.WHEEL, 4),
                                      (Family.WHEEL, 5), (Family.WHEEL, 6)])
def test_graph_build_matches_rank_construction(family, n):
    g = build(n, family)
    gens = generator_set(family, n).members
    for v in range(g.vertex_count):
        sigma = unrank(v, n)
        row = sorted((rank(apply_generator(sigma, t)), gi) for gi, t in enumerate(gens))
        assert g.adj[v] == tuple(row)
        assert g.copy_id[v] == sigma.images[n - 1]


@pytest.mark.parametrize("bad", [-1, 120, 10**9, "7"])
def test_out_of_range_ranks_are_rejected(bad):
    view = full_view(build(5, Family.WHEEL))
    assert not view.contains(bad)
    for fn, args in ((max_internally_disjoint_paths, (view, 0, bad)),
                     (k_fan, (view, 0, [1, bad], 2)),
                     (disjoint_set_paths, (view, [0, 1], [bad, 7], 2)),
                     (min_vertex_cut, (view, bad, 0)),
                     (local_connectivity, (view, 0, bad))):
        with pytest.raises(RankOutOfRange):
            fn(*args)
