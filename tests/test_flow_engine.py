"""The flow engine: pinned outputs, isolation between queries, graph build.

``tests/pinned/flows.json`` holds the outputs of every query that
``pinned_outputs`` runs at n = 5 and n = 6, recorded with the per-call
network builder that the shared engine replaced.  The engine must give
the same paths in the same order, the same cuts and the same failures.
``tests/pinned/flows_n7.json`` holds the outputs of ``n7_queries``,
recorded before ``vin`` rows stopped listing reverse arcs that carry no
flow.
"""

import copy
import itertools
import json
import random
from collections import Counter
from dataclasses import asdict
from pathlib import Path as FilePath

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripaths import flows
from tripaths.errors import InsufficientConnectivity, RankOutOfRange
from tripaths.flows import (
    _TWO_ENDED_VERTICES,
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
    Path,
    build,
    copy_of,
    copy_union,
    delete_copies,
    full_view,
    outside_neighbors,
    spanning_intra_view,
)
from tripaths.perms import Family, apply_generator, generator_set, rank, unrank
from tripaths.tripod import TripodFailure, _two_phase, solve_tripod
from tripaths.verification import StructureTarget, standard_target

PINNED = FilePath(__file__).parent / "pinned" / "flows.json"
PINNED_N7 = FilePath(__file__).parent / "pinned" / "flows_n7.json"
SEEDS = (None, 5, 1001)


def _paths(paths):
    return [list(p.vertices) for p in paths]


def _call(fn, *args, **kwargs):
    """Outcome of one query as JSON data; a shortfall keeps its message,
    the paths found and the witness cut."""
    try:
        res = fn(*args, **kwargs)
    except InsufficientConnectivity as exc:
        return {"error": str(exc), "achieved": _paths(exc.achieved),
                "witness_cut": list(exc.witness_cut)}
    if isinstance(res, tuple):
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
            w = view.neighbors(u)[0]
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
        nbrs = view.neighbors(x)
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
        detour = next(w for w in g.nbrs[C] if copy_of(g, w) == K)
        a_out, b_out, c_out = (outside_neighbors(g, v) for v in (A, B, C))
        xs = [*c_out, outside_neighbors(g, detour)[0]]
        ys = [a_out[0], a_out[1], b_out[0], b_out[1]]
        for seed in SEEDS:
            out.append((f"n7/outside-detour/{A}-{B}-{C}/s{seed}", disjoint_set_paths,
                        (delete_copies(g, {K}), xs, ys, 4), {"order_seed": seed}))
    union = copy_union(g, {2, 5})
    x = rng.choice(g.copy_members[2])
    targets = rng.sample([v for v in union.vertices() if v != x], 8)
    nbrs = union.neighbors(x)
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


def _raising_query(view, order_seed=None):
    """A fan from 0 that keeps one neighbour of 0 and needs two paths: it
    augments once, then raises."""
    nbrs = view.neighbors(0)
    starved = view.without(nbrs[1:])
    targets = [t for t in starved.vertices() if t != 0 and t not in nbrs][-2:]
    out = _call(k_fan, starved, 0, targets, 2, order_seed=order_seed)
    assert "error" in out and len(out["achieved"]) == 1
    return out


def _fan_query(view):
    """A fan with a capacity-2 target, which ends two paths, and a
    capacity-0 one, which ends none."""
    ys = view.vertices()[-3:]
    out = _call(k_fan, view, 0, {ys[0]: 2, ys[1]: 1, ys[2]: 0}, 3, order_seed=4)
    assert [p[-1] for p in out].count(ys[0]) == 2
    return out


def _dropped_edge_query(view):
    """A pair flow between neighbours without their direct edge."""
    w = view.neighbors(3)[-1]
    out = _call(min_vertex_cut, view, 3, w)
    assert out["adjacent"]
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
    return (net.cap.tobytes(), net.to.tobytes(), [row.tobytes() for row in net.rows],
            net.back_arcs.tobytes(), net.back_first.tobytes())


def test_queries_restore_the_shared_arrays():
    g = build(5, Family.WHEEL)
    view = full_view(g)
    _query_a(view)
    net = _network(view)
    before = _net_bytes(net)
    _raising_query(view)
    _query_b(view.without({5, 6}))
    _call(_two_phase, view, (0, 50, 100), StructureTarget(3, 3, 3), "b", 7, None)
    _fan_query(view)
    _dropped_edge_query(view)
    assert not net.busy
    assert _net_bytes(net) == before
    # seeded queries on large views read rows through an overlay, which
    # the query drops on exit: after a result, a shortfall and an error
    large = full_view(G6)
    net = _network(large)
    rows, before = net.rows, _net_bytes(net)
    fresh = _query_a(large)
    for query in (_query_a, lambda v: _raising_query(v, order_seed=3), _misused_after_a_push,
                  _set_up_raises, _fan_query, _dropped_edge_query):
        query(large)
        assert net.rows is rows and not net.busy
        assert _net_bytes(net) == before
    assert _query_a(large) == fresh


def _raise(*args):
    raise RuntimeError("raised by a stand-in")


def _set_up_raises(view):
    """A seeded query whose row overlay raises while the query sets up,
    after its capacity edits."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_SeededRows", _raise)
        with pytest.raises(RuntimeError, match="stand-in"):
            _FlowQuery(view, order_seed=3, entry_blocked=(0,), no_split=(7,))


def _misused_after_a_push(view):
    with pytest.raises(ValueError, match="vin"):
        with _FlowQuery(view, order_seed=11, entry_blocked=(0,), no_split=(7,)) as q:
            assert type(q.net.rows) is flows._SeededRows
            q.add_arc(q.source, q.vin(0), 1)
            q.add_arc(q.vin(7), q.sink, 1)
            assert q.max_flow(q.source, q.sink, 1) == 1
            q.max_flow(q.vin(3), q.sink, 1)


def _vin_to_vin(q):
    q.add_arc(q.vin(1), q.vin(2), 1)


def _sink_from_vout(q):
    q.add_arc(q.vout(1), q.sink, 1)


def _source_to_sink(q):
    q.add_arc(q.source, q.sink, 1)


def _vin_to_vout(q):
    q.add_arc(q.vin(1), q.vout(2), 1)


def _flow_from_vin(q):
    q.add_arc(q.source, q.vin(4), 1)
    q.max_flow(q.vin(3), q.sink, 1)


def _flow_to_vout(q):
    q.add_arc(q.source, q.vin(4), 1)
    q.max_flow(q.source, q.vout(3), 1)


@pytest.mark.parametrize("misuse", [_vin_to_vin, _sink_from_vout, _source_to_sink,
                                    _vin_to_vout, _flow_from_vin, _flow_to_vout],
                         ids=lambda fn: fn.__name__[1:])
def test_arcs_and_flows_that_skip_the_vin_side_are_rejected(misuse):
    """The BFS expands vin nodes on discovery, which needs every arc to
    join a vin node to the other side and the search to start off it.
    The search from t reads the arcs into a vout node from its split arc
    and its row, which needs terminal arcs to end at the source or sink,
    and t to be a vin node or the sink."""
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
G6 = build(6, Family.WHEEL)
G7 = build(7, Family.WHEEL)


@st.composite
def _flow_cases(draw):
    kind = draw(st.sampled_from(["adjacency", "cw5", "cw6"]))
    if kind == "adjacency":
        k = draw(st.integers(2, 12))
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * k))
        adjacency = {v: [] for v in range(k)}
        for a, b in edges:
            adjacency[a].append(b)
        view = AdjacencyView(adjacency)
    elif kind == "cw5":
        copies = draw(st.sets(st.integers(1, 5), min_size=1, max_size=4))
        view = draw(st.sampled_from([full_view(G5), spanning_intra_view(G5),
                                     copy_union(G5, copies), delete_copies(G5, copies)]))
    else:
        # unions of two or three copies: 240 or 360 vertices, so max_flow
        # searches from both ends
        view = copy_union(G6, draw(st.sets(st.integers(1, 6), min_size=2, max_size=3)))
    verts = view.vertices()
    pick = st.sampled_from(verts)
    some = st.lists(pick, max_size=4, unique=True)
    edits = {name: draw(some) for name in ("entry_blocked", "no_split")}
    removed = draw(some)
    edits["order_seed"] = draw(st.one_of(st.none(), st.integers(0, 2**32)))
    u, v, a = draw(pick), draw(pick), draw(pick)
    nbrs = view.neighbors(a)
    dropped = (a, draw(st.sampled_from(nbrs))) if nbrs and draw(st.booleans()) else None
    sources, sinks = draw(some), draw(some)
    return (view.without(removed), edits, dropped, sources, sinks, draw(st.booleans()), u,
            draw(st.booleans()), v, draw(st.integers(1, 6)))


# The shortest strand 0-1-2-3-9 carries the first unit; the second must
# cancel its edge 2-3.  The leaves of 0 widen the search from 0, so the
# search from 9 walks back through 10, 7 and 5 to vertex 1, which carries
# flow, and on only through the reverse arc of its edge 1-2.
_CANCEL_FROM_T = (
    AdjacencyView({0: [1, 4, *range(20, 30)], 1: [2, 5], 2: [3], 3: [9], 4: [6], 6: [8],
                   8: [3], 5: [7], 7: [10], 10: [9]}),
    {"entry_blocked": [0], "no_split": [9], "order_seed": None},
    None, [], [], False, 0, False, 9, 2)


# The search starts at vout(0), a vertex the view lacks, so the template
# masks it: both label lists must get its mark back, not the -1 of a node
# the query may enter.
_START_MASKED = (
    AdjacencyView({0: [], 1: []}).without([0]),
    {"entry_blocked": [], "no_split": [], "order_seed": None},
    None, [], [], False, 0, True, 1, 1)


# A pair flow on two copies of CW_6 (240 vertices): its first phase
# carries four paths of 7 arcs, then a walk fails and a fresh search finds
# one of 9 arcs, and the next walk fails before one of 11.
_PHASE_OF_FOUR = (
    copy_union(G6, {2, 5}),
    {"entry_blocked": [1], "no_split": [98], "order_seed": None},
    None, [], [], False, 1, False, 98, 6)


# A seeded fan into five targets on three copies of CW_6 (360 vertices):
# phases of lengths 6, 10 and 12, the last carrying three paths, after
# which a walk and a fresh search both fail, one target short of 6.
_SEEDED_FAN = (
    copy_union(G6, {1, 3, 4}),
    {"entry_blocked": [5], "no_split": [719, 710, 640, 214, 450], "order_seed": 5},
    None, [], [719, 710, 640, 214, 450], False, 5, True, 0, 6)


# Seeded set-to-set paths on CW_7 minus a copy (4,320 vertices), from
# the n = 7 sweep: a forward search meets the backward levels past its
# front, and the next walk must find the front's nodes whose rows no
# search has read yet.
_SEEDED_SETS_N7 = (
    delete_copies(G7, {6}),
    {"entry_blocked": [2678, 2799, 3998, 4244], "no_split": [2043, 3842, 4205, 4563],
     "order_seed": 3900189878855806861},
    None, [2678, 2799, 3998, 4244], [2043, 3842, 4205, 4563], True, 0, True, 0, 4)


# The fan of two bundles that solve_tripod starts from, on BS_6 (720
# vertices): eight paths into two targets of capacity 4.  A walk there
# enters a vout node through the reverse arc of an edge that carries flow.
_TRIPOD_FAN = (
    spanning_intra_view(G6),
    {"entry_blocked": [283], "no_split": [498, 696], "order_seed": None},
    None, [], {498: 4, 696: 4}, False, 283, True, 0, 8)


def _fifo_runs(case):
    """Run the flow of `case` (its sinks each take one unit, or what a
    mapping of them gives) and its witness cut, checking every search
    against a plain FIFO BFS over the same residual: the same augmenting
    path, or, run to exhaustion, the same parents.  The two-ended search
    also runs on the residual of every augmentation of a small view.  On
    a large view every augmentation, from a fresh two-ended search or
    from a walk of its phase, is the plain BFS path; a walk that finds
    none leaves no path of its phase's length.  A fresh search starts
    from label lists equal to the template the query was made with, and
    both lists equal it again once ``max_flow`` returns.  Returns the
    searches in order: ("bfs", t), ("two-ended", length) or ("walk",
    length), with length None for a search that found no path."""
    view, edits, dropped, sources, sinks, from_source, u, to_sink, v, limit = case
    net = _network(view)
    kernel, two_ended, walk = flows._bfs, flows._two_ended, flows._Phase.walk
    runs, lists = [], []

    def plain_arcs(template, s, t):
        # a seeded query shuffles a row when it is first read; the plain
        # search reads a copy, so the rows the query itself has read stay
        # the ones its searches and walks read
        rows = copy.copy(net.rows) if type(net.rows) is flows._SeededRows else net.rows
        plain = template[:]
        _plain_bfs(rows, net.to, net.cap, plain, s, t)
        return _path_arcs(plain, net.to, s, t)

    def checked(rows, to, cap, parent, s, t):
        template = parent[:]
        kernel(rows, to, cap, parent, s, t)
        if t == -1:
            plain = template[:]
            _plain_bfs(rows, to, cap, plain, s, t)
            assert parent == plain
        else:
            arcs = plain_arcs(template, s, t)
            assert _path_arcs(parent, to, s, t) == arcs
            labels = template[:], template[:]
            phase = two_ended(net, *labels, s, t)
            if phase is not None:
                assert phase.path == arcs
                phase.clear()
            else:
                assert arcs is None
            assert labels == (template, template)
        runs.append(("bfs", t))

    def checked_two_ended(net_, parent, dist, s, t):
        assert parent == dist == made
        lists[:] = parent, dist
        phase = two_ended(net_, parent, dist, s, t)
        arcs = phase and phase.path
        assert arcs == plain_arcs(made, s, t)
        if phase is None:
            assert parent == dist == made
        runs.append(("two-ended", arcs and len(arcs)))
        return phase

    def checked_walk(phase):
        arcs = walk(phase)
        plain = plain_arcs(made, phase.s, phase.t)
        if arcs is None:
            assert plain is None or len(plain) > phase.length
        else:
            assert arcs == plain
        runs.append(("walk", arcs and len(arcs)))
        return arcs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_bfs", checked)
        mp.setattr(flows, "_two_ended", checked_two_ended)
        mp.setattr(flows._Phase, "walk", checked_walk)
        with _FlowQuery(view, **edits) as q:
            made = q.template[:]
            for x in sources:
                q.add_arc(q.source, q.vin(x), 1)
            for y in sinks:
                q.add_arc(q.vin(y), q.sink, sinks[y] if isinstance(sinks, dict) else 1)
            if dropped is not None:
                q.drop_edge(*dropped)
            s = q.source if from_source else q.vout(u)
            t = q.sink if to_sink else q.vin(v)
            q.max_flow(s, t, limit)
            assert q.template == made
            assert all(labels == made for labels in lists)
            q.witness_cut(s)
    large = view.vertex_count >= flows._TWO_ENDED_VERTICES
    kinds = {kind for kind, _ in runs[:-1]}
    assert kinds - {"walk"} == {"two-ended"} if large else kinds == {"bfs"}
    assert runs[-1] == ("bfs", -1)
    return runs[:-1]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=_flow_cases())
@example(case=_CANCEL_FROM_T)
@example(case=_START_MASKED)
@example(case=_PHASE_OF_FOUR)
@example(case=_SEEDED_FAN)
@example(case=_SEEDED_SETS_N7)
@example(case=_TRIPOD_FAN)
def test_bfs_finds_the_plain_fifo_augmenting_paths(case):
    """Every search of a query finds what a plain FIFO BFS finds on the
    same residual, the same-length walks of a large view included, and
    leaves the label lists as the query made them (``_fifo_runs``)."""
    _fifo_runs(case)


def test_phase_examples_walk_the_paths_they_name():
    """The large-view examples of the FIFO test reach what their comments
    name: a phase of four paths, failed walks each followed by a longer
    fresh search, a flow that ends short after a failed walk, the
    tripod fan's phase of five paths, and a seeded n = 7 phase of two."""
    assert _fifo_runs(_PHASE_OF_FOUR) == [
        ("two-ended", 7), ("walk", 7), ("walk", 7), ("walk", 7), ("walk", None),
        ("two-ended", 9), ("walk", None), ("two-ended", 11)]
    assert _fifo_runs(_SEEDED_FAN) == [
        ("two-ended", 6), ("walk", None), ("two-ended", 10), ("walk", None),
        ("two-ended", 12), ("walk", 12), ("walk", 12), ("walk", None), ("two-ended", None)]
    assert _fifo_runs(_TRIPOD_FAN) == [
        ("two-ended", 8), ("walk", 8), ("walk", 8), ("walk", 8), ("walk", 8), ("walk", None),
        ("two-ended", 12), ("walk", 12), ("walk", 12)]
    assert _fifo_runs(_SEEDED_SETS_N7) == [
        ("two-ended", 10), ("walk", 10), ("walk", None), ("two-ended", 12), ("walk", None),
        ("two-ended", 14)]


def test_join_names_the_node_whose_labels_are_out_of_step():
    """A meet whose distance label has no open arc one step closer to t
    raises a RuntimeError that names the node and the distance it
    wanted, not a StopIteration that a generator caller would turn into
    a context-free RuntimeError."""
    view = AdjacencyView({0: [1], 1: [2], 2: []})
    with _FlowQuery(view) as q:
        parent, dist = q.template[:], q.template[:]
        parent[q.vout(0)] = -2
        dist[q.vin(2)], dist[q.vout(1)] = 0, 3
        with pytest.raises(RuntimeError, match=f"node {q.vout(1)} .* distance 2"):
            flows._join(q.net.rows, q.net.to, q.net.cap, parent, dist, q.vout(0), q.vout(1),
                        q.vin(2))


class _StopAt(flows.StepCounter):
    """A step counter that raises on step `stop`."""

    def __init__(self, stop):
        super().__init__()
        self.stop = stop

    def add(self, k=1):
        super().add(k)
        if self.used == self.stop:
            raise RuntimeError(f"stopped at step {self.used}")


def test_flow_that_raises_mid_phase_leaves_nothing_set():
    """A flow stopped by an exception after a walk's augmentation, while
    its phase still holds labels, or inside a search once its frontiers
    meet, leaves the network rows and capacities static and the template
    as the query made it, and a fresh query then gives what a query gives
    on a fresh graph."""
    view, edits, _, _, _, _, u, _, v, limit = _PHASE_OF_FOUR
    net = _network(view)
    before = _net_bytes(net)

    def outcome(counter=None):
        with _FlowQuery(view, **edits) as q:
            value = q.max_flow(q.vout(u), q.vin(v), limit, counter)
            return value, q.extract_paths(q.vout(u), q.vin(v)), q.witness_cut(q.vout(u))

    fresh = outcome()
    walk, walks = flows._Phase.walk, []

    def recorded(phase):
        walks.append(walk(phase))
        return walks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows._Phase, "walk", recorded)
        with pytest.raises(RuntimeError, match="step 3"):
            with _FlowQuery(view, **edits) as q:
                made = q.template[:]
                q.max_flow(q.vout(u), q.vin(v), limit, _StopAt(3))
        assert len(walks) == 1 and walks[0] is not None
        assert q.template == made
    assert not net.busy and _net_bytes(net) == before
    assert outcome() == fresh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_join", _raise)
        with pytest.raises(RuntimeError, match="stand-in"):
            with _FlowQuery(view, **edits) as q:
                made = q.template[:]
                q.max_flow(q.vout(u), q.vin(v), limit)
        assert q.template == made
    assert not net.busy and _net_bytes(net) == before
    assert outcome() == fresh
    assert _call(max_internally_disjoint_paths, view, u, v) == _call(
        max_internally_disjoint_paths, copy_union(build(6, Family.WHEEL), {2, 5}), u, v)


@pytest.mark.parametrize("limit", [3, 6])
def test_large_view_steps_count_paths_and_one_final_search(limit):
    """``StepCounter`` counts one step per augmenting path, whether a
    fresh search or a walk found it, and one more for the last search
    of a flow that ends short of its limit: there a failed walk and a
    failed fresh search make one step."""
    view, edits, _, _, sinks, _, x, _, _, _ = _SEEDED_FAN
    counter = flows.StepCounter()
    with _FlowQuery(view, **edits) as q:
        for y in sinks:
            q.add_arc(q.vin(y), q.sink, 1)
        value = q.max_flow(q.vout(x), q.sink, limit, counter)
    assert value == min(limit, 5)
    assert counter.used == value + (value < limit)


@pytest.mark.parametrize("order_seed", [None, 7])
def test_large_view_query_gives_fresh_results_across_calls(order_seed):
    """A query on a large view labels every search into its template and
    puts the labels back: a second ``max_flow`` and the witness cut after
    it give what fresh queries give, and the template is the one the
    query was made with."""
    view = delete_copies(G6, {2})
    assert view.vertex_count >= _TWO_ENDED_VERTICES
    verts = view.vertices()
    u, v = verts[0], verts[len(verts) // 2]
    edits = {"order_seed": order_seed, "entry_blocked": (u,), "no_split": (v,)}

    def outcome(q, value):
        return (value, q.extract_paths(q.vout(u), q.vin(v)), q.witness_cut(q.vout(u)))

    def fresh(limit):
        with _FlowQuery(view, **edits) as q:
            return outcome(q, q.max_flow(q.vout(u), q.vin(v), limit))

    two, full = fresh(2), fresh(G6.degree)
    with _FlowQuery(view, **edits) as q:
        made = q.template[:]
        first = q.max_flow(q.vout(u), q.vin(v), 2)
        assert q.extract_paths(q.vout(u), q.vin(v)) == two[1]
        assert q.template == made
        got = outcome(q, first + q.max_flow(q.vout(u), q.vin(v), G6.degree))
        assert q.template == made
    assert first == two[0] == 2
    assert got == full


def _dict_decomposition(q, source, sink):
    """The paths ``extract_paths`` gave before it walked the flow: dicts
    of the units left on every arc with flow and of the arcs with flow
    out of each node (in row order where there are several), taken from
    the source in row order."""
    rows, to, cap = q.net.rows, q.net.to, q.net.cap
    remaining = {k: cap[k + 1] for k in range(0, len(to), 2) if cap[k + 1]}
    tails = {}
    for k in remaining:
        tails.setdefault(to[k ^ 1], []).append(k)
    used_out = {node: [e for e in rows[node] if e in remaining] if len(arcs) > 1 else arcs
                for node, arcs in tails.items()}
    paths = []
    while True:
        e = next((e for e in used_out.get(source, ()) if remaining[e] > 0), None)
        if e is None:
            return paths
        nodes = [source]
        while nodes[-1] != sink:
            remaining[e] -= 1
            nodes.append(to[e])
            e = next((a for a in used_out.get(to[e], ()) if remaining[a] > 0), None)
        vp = []
        for node in nodes:
            if node < q.source and (not vp or vp[-1] != node >> 1):
                vp.append(node >> 1)
        paths.append(Path(tuple(vp)))


@st.composite
def _extraction_cases(draw):
    view = draw(st.sampled_from([full_view(G5), spanning_intra_view(G5), copy_union(G5, {1, 4}),
                                 copy_union(G6, {2, 5}), delete_copies(G6, {1, 3, 6})]))
    verts = view.vertices()
    pick = st.sampled_from(verts)
    kind = draw(st.sampled_from(["pair", "drop", "fan", "sets"]))
    seed = draw(st.one_of(st.none(), st.integers(0, 2**32)))
    u = draw(pick)
    if kind in ("pair", "drop"):
        near = kind == "drop" or draw(st.booleans())
        v = draw(st.sampled_from(view.neighbors(u)) if near else pick.filter(lambda v: v != u))
        return view, kind, seed, (u, v)
    if kind == "fan":
        ys = draw(st.lists(pick.filter(lambda y: y != u), min_size=1, max_size=6, unique=True))
        caps = {y: draw(st.integers(0, 3)) for y in ys}
        return view, kind, seed, (u, caps, draw(st.integers(0, sum(caps.values()))))
    xs = draw(st.lists(pick, min_size=1, max_size=5, unique=True))
    shared = draw(st.lists(st.sampled_from(xs), max_size=2, unique=True))
    ys = shared + draw(st.lists(pick.filter(lambda y: y not in xs), max_size=4, unique=True))
    if not ys:
        ys = [u] if u not in xs else xs[:1]
    return view, kind, seed, (xs, ys, draw(st.integers(0, min(len(xs), len(ys)))))


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(case=_extraction_cases())
def test_extraction_walks_to_the_paths_of_the_dict_decomposition(case):
    """Walking the flow gives the paths, in order, that the dict-based
    decomposition gave: pair flows with and without the direct edge and
    after ``drop_edge``, fans with capacity-c and capacity-0 targets and
    set-to-set paths with shared terminals, seeded and unseeded, on views
    below and above ``_TWO_ENDED_VERTICES``."""
    view, kind, seed, args = case
    walk = _FlowQuery.extract_paths
    compared = []

    def checked(q, source, sink):
        paths = walk(q, source, sink)
        assert paths == _dict_decomposition(q, source, sink)
        compared.append(len(paths))
        return paths

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_FlowQuery, "extract_paths", checked)
        if kind == "pair":
            max_internally_disjoint_paths(view, *args, order_seed=seed)
        elif kind == "drop":
            u, v = args
            with _FlowQuery(view, order_seed=seed, entry_blocked=(u,), no_split=(v,)) as q:
                q.drop_edge(u, v)
                q.max_flow(q.vout(u), q.vin(v), view.degree(u))
                assert all(p.vertices != (u, v) for p in q.extract_paths(q.vout(u), q.vin(v)))
        elif kind == "fan":
            u, caps, k = args
            _call(k_fan, view, u, caps, k, order_seed=seed)
        else:
            _call(disjoint_set_paths, view, *args, order_seed=seed)
    # set paths that the shared terminals alone make run no flow
    assert len(compared) == (kind != "sets" or args[2] > len(set(args[0]) & set(args[1])))


@pytest.mark.parametrize("order_seed", [None, 7])
@pytest.mark.parametrize("view", [full_view(G5), copy_union(G6, {2, 5})], ids=["small", "large"])
def test_flow_sources_need_no_edit(view, order_seed):
    """Nothing reads the arcs into the start of a flow: pair flows, pair
    cuts and fans, shortfalls included, give the same paths, steps and
    cuts as a query that also blocks the entries into the start."""
    rng = random.Random(29)
    verts = view.vertices()

    def blocked(u, ends, fan, limit, drop=False):
        counter = flows.StepCounter()
        with _FlowQuery(view, order_seed=order_seed, entry_blocked=(u,), no_split=ends) as q:
            t = q.sink if fan else q.vin(ends[0])
            for y in ends if fan else ():
                q.add_arc(q.vin(y), q.sink, 1)
            if drop:
                q.drop_edge(u, ends[0])
            q.max_flow(q.vout(u), t, limit, counter)
            return q.extract_paths(q.vout(u), t), counter.used, q.witness_cut(q.vout(u))

    shortfalls = 0
    for _ in range(12):
        u, v = rng.sample(verts, 2)
        counter = flows.StepCounter()
        fam = max_internally_disjoint_paths(view, u, v, order_seed=order_seed, counter=counter)
        goal = min(view.degree(u), view.degree(v))
        assert (list(fam), counter.used) == blocked(u, [v], False, goal)[:2]
        if order_seed is None:
            adjacent = view.adjacent(u, v)
            assert min_vertex_cut(view, u, v).vertices == blocked(u, [v], False, goal, adjacent)[2]
        x = rng.choice(verts)
        ys = sorted(rng.sample([w for w in verts if w != x], rng.randint(3, view.degree(x) + 2)))
        counter = flows.StepCounter()
        try:
            got = list(k_fan(view, x, ys, len(ys), order_seed, counter)), counter.used, None
        except InsufficientConnectivity as exc:
            got = list(exc.achieved), counter.used, exc.witness_cut
            shortfalls += 1
        paths, used, cut = blocked(x, ys, True, len(ys))
        assert got == (paths, used, cut if len(paths) < len(ys) else None)
    assert shortfalls


@pytest.mark.parametrize("view", [full_view(G5), copy_union(G6, {2, 5})], ids=["small", "large"])
def test_unsplit_vertices_close_their_split_arc_only(view, monkeypatch):
    """A ``no_split`` vertex closes its split arc and leaves the arcs out
    of ``vout(v)`` open, yet no search labels ``vout(v)`` and no arc out
    of it carries flow; ``q.saved`` holds the edited arcs only, before
    the flow and after it."""
    net = _network(view)
    verts = view.vertices()
    x = verts[0]
    targets = view.neighbors(x)[:3] + verts[-2:]
    a = verts[len(verts) // 2]
    b = view.neighbors(a)[0]
    into_x = {f ^ 1 for f in net.back_arcs[net.back_first[x]:net.back_first[x + 1]]}
    dropped = next(e for e in net.rows[2 * a + 1] if net.to[e] == 2 * b)
    edited = {dropped, *into_x, *(2 * y for y in targets)}
    unsplit_out = [2 * y + 1 for y in targets]
    kernel, join = flows._bfs, flows._join

    def unlabelled(parent):
        assert all(parent[node] == -1 for node in unsplit_out)

    def bfs(rows, to, cap, parent, s, t):
        kernel(rows, to, cap, parent, s, t)
        unlabelled(parent)

    def joined(rows, to, cap, parent, dist, s, m, t):
        unlabelled(parent)
        return join(rows, to, cap, parent, dist, s, m, t)

    monkeypatch.setattr(flows, "_bfs", bfs)
    monkeypatch.setattr(flows, "_join", joined)
    with _FlowQuery(view, entry_blocked=(x,), no_split=targets) as q:
        q.drop_edge(a, b)
        assert set(q.saved) == edited
        for y in targets:
            q.add_arc(q.vin(y), q.sink, 1)
        assert q.max_flow(q.vout(x), q.sink, len(targets)) == len(targets)
        assert set(q.saved) == edited
        for node in unsplit_out:
            assert net.cap[node - 1] == 0
            assert all(net.cap[e] == (e not in edited) and net.cap[e + 1] == 0
                       for e in net.rows[node])
        q.witness_cut(q.vout(x))
    assert not net.busy and net.cap == _network(view).cap


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


def _eager_rows(static, to, template, unsplit, seed):
    """Every row of a network as the seeded order gives it: one
    ``random.Random(seed).shuffle`` of the in-view forward arcs of each
    in-view vertex but the unsplit ones, in ascending order; any other row
    as it is in `static`, the network's rows before the query."""
    rng = random.Random(seed)
    rows = [list(row) for row in static]
    for v in range(len(rows) // 2 - 1):
        if template[2 * v] == -1 and v not in unsplit:
            rows[2 * v + 1] = [e for e in rows[2 * v + 1] if template[to[e]] == -1]
            rng.shuffle(rows[2 * v + 1])
    return rows


@pytest.mark.parametrize("seed", [0, 1, 5, 1001, 2**40 + 3])
def test_seeded_rows_follow_random_shuffle(seed):
    """The order a seed gives a row is ``random.Random(seed).shuffle`` of
    the row, for rows of every length: the centre of a star is the first
    vertex shuffled, and its leaves' one-arc rows draw nothing.  Stars of
    200 leaves and more are large views, whose rows are shuffled on first
    read up to 255 arcs; from 256 arcs on, a draw takes more than the top
    byte of its word, and every row is shuffled up front.  Two centres
    sharing 260 leaves put a long row after draws, and rows that draw
    after long ones."""
    for leaves in [*range(21), 100, 200, 255, 256, 257, 300, 400]:
        star = AdjacencyView({0: list(range(1, leaves + 1))})
        expected = list(_network(star).rows[1])
        random.Random(seed).shuffle(expected)
        with _FlowQuery(star, order_seed=seed) as q:
            assert list(q.net.rows[q.vout(0)]) == expected, leaves
    for leaves in (3, 260):
        view = AdjacencyView({0: list(range(2, leaves + 2)), 1: list(range(2, leaves + 2))})
        net = _network(view)
        static = list(net.rows)
        with _FlowQuery(view, order_seed=seed) as q:
            expected = _eager_rows(static, net.to, q.template, set(), seed)
            assert [list(net.rows[node]) for node in range(len(static))] == expected, leaves


def _mixed_rows_view(hubs=(250, 255)):
    """A view of about 1,020 vertices whose in-view rows have 0, 1, 2, 4
    and 6 arcs and the arcs of the two `hubs`: each hub with its own
    leaves, placed before and between rings of equal-length rows, with
    isolated vertices in between.  Hubs of 250 and 255 arcs are the
    widest rows whose draws the top bytes of the words decide."""
    adjacency = {0: list(range(1, hubs[0] + 1)), 400: list(range(401, 401 + hubs[1])),
                 290: [], 291: [], 350: [], 690: [], 1100: []}
    for first, size, steps in ((300, 40, (1, 2)), (360, 30, (1, 3)), (700, 400, (1,)),
                               (1110, 40, (1, 2, 3))):
        for i in range(size):
            adjacency[first + i] = [first + (i + d) % size for d in steps]
    view = AdjacencyView(adjacency)
    assert view.vertex_count >= _TWO_ENDED_VERTICES
    return view


MIXED_ROWS = _mixed_rows_view()
# unsplit rows of 4 arcs: the middle of the full run 300..331, the first
# and last rows of the run 360..389, and the whole run 332..339
MIXED_MID_RUN = 310
MIXED_RUN_ENDS = (360, 389)
MIXED_HOLE_RUN = tuple(range(332, 340))
MIXED_UNSPLIT = (MIXED_MID_RUN, *MIXED_RUN_ENDS, *MIXED_HOLE_RUN)


@st.composite
def _large_seeded_queries(draw):
    kind = draw(st.sampled_from(["copies", "minus", "mixed"]))
    if kind == "copies":
        view = copy_union(G6, draw(st.sets(st.integers(1, 6), min_size=2, max_size=5)))
    elif kind == "minus":
        view = delete_copies(G7, {draw(st.integers(1, 7))})
    else:
        view = MIXED_ROWS
    some = st.lists(st.sampled_from(view.vertices()), max_size=6, unique=True)
    removed = draw(some)
    view = view.without(removed)
    queries = []
    for _ in range(2):
        no_split = draw(some)
        if kind == "mixed":
            no_split += [v for v in MIXED_UNSPLIT if v not in removed + no_split]
        queries.append({"no_split": no_split,
                        "order_seed": draw(st.integers(0, 2**64))})
    return view, queries, draw(st.integers(0, 2**32))


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(case=_large_seeded_queries())
def test_large_seeded_rows_match_an_eager_shuffle(case):
    """A seeded query on a large view hands out each row on first read;
    read in any order, every row is the one an eager shuffle gives, and
    the static rows are back when the query ends.  Two queries on one
    vertex mask share the mask's row plan, under other seeds and other
    unsplit vertices."""
    view, queries, read_seed = case
    net = _network(view)
    static = net.rows
    plans = []
    for edits in queries:
        with _FlowQuery(view, **edits) as q:
            assert type(net.rows) is flows._SeededRows
            plans.append(net.rows.plan)
            nodes = list(range(len(static)))
            random.Random(read_seed).shuffle(nodes)
            got = {node: list(net.rows[node]) for node in nodes}
            expected = _eager_rows(static, net.to, q.template, set(edits["no_split"]),
                                   edits["order_seed"])
        assert net.rows is static
        assert [got[node] for node in range(len(static))] == expected
    assert plans[0] is plans[1]


def test_mixed_rows_view_puts_an_unsplit_vertex_inside_a_run():
    """The mixed view has the rows it is drawn for: every row length it
    names, ``MIXED_MID_RUN`` inside a full run of equal rows, unsplit rows
    first and last in another run, and a run of unsplit rows only."""
    with _FlowQuery(MIXED_ROWS, order_seed=1, no_split=MIXED_UNSPLIT) as q:
        rows = q.net.rows
    plan = rows.plan
    run, i = divmod(plan.where[MIXED_MID_RUN], flows._RUN_ROWS)
    assert 0 < i < plan.count[run] - 1
    assert (plan.length[run], plan.count[run]) == (4, flows._RUN_ROWS)
    (run, first), (same, last) = (divmod(plan.where[v], flows._RUN_ROWS) for v in MIXED_RUN_ENDS)
    assert run == same and (first, last) == (0, plan.count[run] - 1) and last > 1
    runs = {plan.where[v] // flows._RUN_ROWS for v in MIXED_HOLE_RUN}
    assert len(runs) == 1 and plan.count[runs.pop()] == len(MIXED_HOLE_RUN)
    assert {0, 1, 2, 4, 6, 250, 255} <= set(plan.length)


def test_rows_of_256_arcs_or_more_are_shuffled_up_front():
    """A row of 256 arcs or more draws more than the top byte of a word,
    so on a network that has one, seeded queries on large views shuffle
    every row up front, as on small views."""
    view = _mixed_rows_view((250, 260))
    net = _network(view)
    static = list(net.rows)
    for seed in (0, 7, 2**40 + 3):
        with _FlowQuery(view, order_seed=seed, no_split=MIXED_UNSPLIT) as q:
            assert type(net.rows) is list
            got = [list(row) for row in net.rows]
            expected = _eager_rows(static, net.to, q.template, set(MIXED_UNSPLIT), seed)
        assert got == expected
        assert net.rows == static


def test_seeded_row_caches_stay_bounded(monkeypatch):
    """Seeded queries on many transient views of CW_7 minus a copy keep at
    most ``_ROW_PLANS`` row plans and compile at most one pattern per
    (row length, rows that draw), and each run is matched once, with one
    group per row that is not unsplit; a run of unsplit rows only is not
    matched."""
    real = flows._run_draws
    real.cache_clear()
    asked = Counter()

    def counting(length, count):
        asked[length, count] += 1
        return real(length, count)

    monkeypatch.setattr(flows, "_run_draws", counting)
    rng = random.Random(18)
    net = _network(delete_copies(G7, {1}))
    for i in range(105):
        base = delete_copies(G7, {i % 7 + 1})
        view = base.without(rng.sample(base.vertices(), 3))
        unsplit = set(rng.sample(view.vertices(), 4))
        asked.clear()
        with _FlowQuery(view, order_seed=i, no_split=unsplit) as q:
            plan = q.net.rows.plan
        assert len(net.row_plans) <= flows._ROW_PLANS
        holes = Counter(plan.where[v] // flows._RUN_ROWS for v in unsplit)
        assert asked == Counter((length, count - holes[run])
                                for run, (length, count) in enumerate(zip(plan.length, plan.count))
                                if count > holes[run])
    assert len(net.row_plans) == flows._ROW_PLANS
    # rows hold 0 to G7.degree in-view arcs, runs 1 to _RUN_ROWS rows that draw
    assert real.cache_info().currsize <= (G7.degree + 1) * flows._RUN_ROWS


def test_interleaved_graphs_do_not_share_state():
    g5, g6, g5_bss = (build(5, Family.WHEEL), build(6, Family.WHEEL),
                      build(5, Family.BUBBLE_SORT_STAR))
    before = [_query_a(full_view(g)) for g in (g5, g6, g5_bss)]
    before_intra = _query_a(spanning_intra_view(g6))
    for g in (g6, g5_bss, g5):
        _raising_query(full_view(g))
    assert [_query_a(full_view(g)) for g in (g5, g6, g5_bss)] == before
    assert _query_a(spanning_intra_view(g6)) == before_intra


def test_one_network_per_graph():
    """Queries on the full view and on copy views of g share the one
    network kept on g, built by the first of them; the spanning view's
    queries run on the network kept on its own graph."""
    g = build(5, Family.WHEEL)
    assert g.split_network is None
    max_internally_disjoint_paths(full_view(g), 0, 119)
    net = g.split_network
    assert net is not None and _network(full_view(g)) is net
    copies = copy_union(g, {1, 3})
    max_internally_disjoint_paths(copies, *copies.vertices()[:2])
    assert g.split_network is net
    intra = spanning_intra_view(g)
    max_internally_disjoint_paths(intra, 0, 119)
    assert intra.graph.split_network is _network(intra) is not net
    assert g.split_network is net
    assert intra.graph.split_network.arc_count < net.arc_count


@pytest.mark.parametrize("view_of", [full_view, spanning_intra_view])
def test_entry_blocked_closes_exactly_the_edge_arcs_into_the_vertex(view_of):
    """Blocking entry into v closes the edge arcs into vin(v), one per
    neighbour in the view's graph, and nothing else."""
    g = build(5, Family.WHEEL)
    view = view_of(g)
    net = _network(view)
    before = net.cap[:]
    for v in (0, 37, 119):
        into = {e for e in range(0, net.arc_count, 2) if net.to[e] == 2 * v}
        assert len(into) == view.degree(v)
        with _FlowQuery(view, entry_blocked=(v,)) as q:
            assert set(q.saved) == into
            assert all(net.cap[e] == 0 for e in into)
        assert net.cap == before


def test_tripod_after_failed_flow_is_unchanged():
    g = build(6, Family.WHEEL)
    view = spanning_intra_view(g)
    omega = (0, 300, 611)
    first = _call(solve_tripod, view, omega, standard_target(6), seed=3)
    _raising_query(view)
    assert _call(solve_tripod, view, omega, standard_target(6), seed=3) == first


@pytest.mark.parametrize("family,n", [(Family.BUBBLE_SORT_STAR, 3), (Family.BUBBLE_SORT_STAR, 4),
                                      (Family.BUBBLE_SORT_STAR, 5), (Family.WHEEL, 4),
                                      (Family.WHEEL, 5), (Family.WHEEL, 6), (Family.WHEEL, 7)])
def test_graph_build_matches_rank_construction(family, n):
    """Both rows of every vertex, rebuilt from ranks: the neighbours in
    ascending order and the generator of each; the (2 n) images are the
    neighbours by that generator, where the family has it."""
    g = build(n, family)
    gens = generator_set(family, n)
    star = next((gi for gi, t in enumerate(gens) if (t.i, t.j) == (2, n)), None)
    assert star == g.outside_gens[2]
    assert not hasattr(g, "adj")
    assert len(g.nbrs) == len(g.nbr_gens) == g.vertex_count
    for v in range(g.vertex_count):
        sigma = unrank(v, n)
        row = sorted((rank(apply_generator(sigma, t)), gi) for gi, t in enumerate(gens))
        assert g.nbrs[v] == tuple(w for w, _ in row)
        assert tuple(g.nbr_gens[v]) == tuple(gi for _, gi in row)
        assert full_view(g).neighbors(v) == [w for w, _ in row]
        assert g.copy_id[v] == sigma.images[n - 1]
        if star is not None:
            assert g.star_image[v] == next(w for w, gi in row if gi == star)
    assert len(g.star_image) == (g.vertex_count if star is not None else 0)


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
