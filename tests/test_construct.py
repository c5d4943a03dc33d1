"""Case machine: routes, traces, and structural guarantees per terminal layout."""

import ast
import itertools
import pathlib
import random
import sys
import time
from collections import Counter

import pytest

import tripaths.construct
import tripaths.verification
from tripaths.certify import (
    CASE_1_1,
    CASE_1_2_1,
    CASE_1_2_2,
    CASE_2,
    CASE_3_1,
    CASE_3_2,
    CASE_3_3,
    CASE_EVEN,
    CASE_FALLBACK,
)
from tripaths.construct import build_structure
from tripaths.errors import DuplicateVertices, InsufficientConnectivity, WrongFamily
from tripaths.graphs import CayleyGraph, PathFamily, build, full_view, outside_neighbors
from tripaths.pairing import LowerBoundReport, pair_structure, pi3_lower, sample_triples
from tripaths.perms import Family, Permutation, compose, parse_permutation, rank
from tripaths.tripod import TripodFailure
from tripaths.verification import check_tripod, formula_value, standard_target

G4 = build(4, Family.WHEEL)
G5 = build(5, Family.WHEEL)
G7 = build(7, Family.WHEEL)


def _check(g, omega, seed=0):
    structure, trace = build_structure(g, omega, seed=seed)
    verdict = check_tripod(full_view(g), structure, standard_target(g.n))
    assert verdict.ok, (omega, verdict.violations)
    assert structure.counts() == standard_target(g.n).as_tuple()
    return structure, trace


def test_wrong_family():
    bss = build(4, Family.BUBBLE_SORT_STAR)
    with pytest.raises(WrongFamily):
        build_structure(bss, (0, 1, 2))


def test_duplicate_vertices():
    with pytest.raises(DuplicateVertices):
        build_structure(G4, (0, 1, 1))


def test_even_case_n4():
    rng = random.Random(42)
    for _ in range(15):
        omega = tuple(rng.sample(range(24), 3))
        structure, trace = _check(G4, omega)
        assert trace.case_id == CASE_EVEN
        assert not trace.fallback
        assert structure.counts() == (2, 2, 2)


def test_cyclic_rotation_example_n5():
    # a = e, b = a rotated by (1 2 3), c = b rotated again: same copy,
    # algebraically cyclic with rotation step 2
    a = rank(parse_permutation("[1,2,3,4,5]"))
    b = rank(parse_permutation("[2,3,1,4,5]"))
    c = rank(parse_permutation("[3,1,2,4,5]"))
    structure, trace = _check(G5, (a, b, c))
    assert trace.case_id == CASE_1_2_2
    assert trace.auxiliary["rotation_step"] == 2
    assert trace.auxiliary["regime"] == "paired-j2"
    assert structure.counts() == (2, 4, 4)


def test_cyclic_rotation_high_step_n5():
    # rotation step n-2 lands in the mirrored paired regime
    a = rank(parse_permutation("[1,2,3,4,5]"))
    b = rank(parse_permutation("[3,2,4,1,5]"))
    c = rank(parse_permutation("[4,2,1,3,5]"))
    structure, trace = _check(G5, (a, b, c))
    assert trace.case_id == CASE_1_2_2
    assert trace.auxiliary["rotation_step"] == 3
    assert trace.auxiliary["regime"] == "paired-j3"


def test_same_copy_sweep_n5():
    members = G5.copy_members[2]
    rng = random.Random(0)
    seen = set()
    for _ in range(30):
        omega = tuple(sorted(rng.sample(members, 3)))
        _, trace = _check(G5, omega)
        assert trace.case_id in (CASE_1_1, CASE_1_2_1, CASE_1_2_2)
        seen.add(trace.case_id)
        assert set(trace.copies.values()) == {2}
    assert CASE_1_1 in seen


def test_two_copy_sweep_n5():
    rng = random.Random(1)
    for _ in range(25):
        pair = rng.sample(G5.copy_members[1], 2)
        loner = rng.choice(G5.copy_members[4])
        omega = tuple(sorted(pair + [loner]))
        structure, trace = _check(G5, omega)
        assert trace.case_id == CASE_2
        # the harvest donates first vertices of 2d-3 long pair paths
        assert len(trace.auxiliary["harvested"]) == G5.n - 4


def test_three_copy_sweep_n5():
    rng = random.Random(2)
    seen = set()
    for _ in range(40):
        omega = tuple(sorted(
            rng.choice(G5.copy_members[c]) for c in (1, 3, 5)))
        _, trace = _check(G5, omega)
        assert trace.case_id in (CASE_3_1, CASE_3_2, CASE_3_3)
        seen.add(trace.case_id)
    assert CASE_3_1 in seen


def test_trace_roles_match_omega():
    omega = (10, 40, 90)
    _, trace = _check(G5, omega)
    assert sorted(trace.roles.values()) == sorted(omega)
    for role, v in trace.roles.items():
        assert trace.copies[role] == G5.copy_id[v]


def test_no_fallback_across_mixed_sweep_n5():
    rng = random.Random(3)
    for _ in range(60):
        omega = tuple(sorted(rng.sample(range(120), 3)))
        _, trace = _check(G5, omega)
        assert not trace.fallback


def test_deterministic_given_seed():
    omega = (7, 61, 113)
    s1, t1 = build_structure(G5, omega, seed=5)
    s2, t2 = build_structure(G5, omega, seed=5)
    assert s1 == s2
    assert t1.case_id == t2.case_id


def test_omega_order_does_not_matter():
    one, trace_one = _check(G5, (90, 10, 40))
    two, trace_two = _check(G5, (10, 40, 90))
    assert one == two
    assert trace_one.case_id == trace_two.case_id
    assert set(one.omega) == {10, 40, 90}


def test_route_miss_falls_back_with_its_trace(monkeypatch):
    # a route that returns None hands the triple to the generic solver
    monkeypatch.setattr(tripaths.construct, "_two_copies", lambda g, tri: None)
    omega = (97, 40, 89)
    structure, trace = _check(G5, omega, seed=4)
    assert trace.case_id == CASE_FALLBACK and trace.fallback
    assert trace.roles == dict(zip("abc", sorted(omega)))
    assert trace.copies == {r: G5.copy_id[v] for r, v in trace.roles.items()}
    assert trace.auxiliary == {} and trace.seed == 4
    assert len(pair_structure(full_view(G5), structure)) == formula_value(5)
    # and the lower bound counts the triple as a fallback
    report = pi3_lower(G5, [(40, 89, 97)], seed=1)
    assert report.fallback_count == 1 and not report.failures
    assert report.case_counts == {CASE_FALLBACK: 1} and report.value == 5


def test_bridged_rotation_regime_n7(monkeypatch):
    # rotation steps strictly between 2 and n-2 only exist from n=7 up; the
    # first triple keeps its star-copy flow, the second re-anchors it, which
    # is the one route step that calls shortest_path with vertices to avoid
    a = rank(parse_permutation("[1,2,3,4,5,6,7]"))
    b = rank(parse_permutation("[3,2,4,1,5,6,7]"))
    c = rank(parse_permutation("[4,2,1,3,5,6,7]"))
    avoided = []

    def recording(view, u, v, avoid=frozenset()):
        avoided.append(bool(avoid))
        return REAL_SHORTEST_PATH(view, u, v, avoid)

    monkeypatch.setattr(tripaths.construct, "shortest_path", recording)
    for omega, reanchored in (((a, b, c), False), (REANCHORED_N7, True)):
        avoided.clear()
        structure, trace = build_structure(G7, omega, seed=0)
        verdict = check_tripod(full_view(G7), structure, standard_target(7))
        assert verdict.ok, verdict.violations
        assert trace.case_id == CASE_1_2_2
        assert trace.auxiliary["regime"] == "bridged-j3"
        assert any(avoided) == reanchored, omega
        omega_set = pair_structure(full_view(G7), structure)
        assert len(omega_set) == 8


def _rotation_triples(g):
    """Every triple {A, A t, A t t}, ascending, where the 3-cycle t sends
    1 -> j -> j + 1 -> 1 and 2 <= j <= n - 2."""
    triples = set()
    for j in range(2, g.n - 1):
        images = list(range(1, g.n + 1))
        images[0], images[j - 1], images[j] = j, j + 1, 1
        t = Permutation(tuple(images))
        for A in range(g.vertex_count):
            pb = compose(g.perm(A), t)
            triples.add(tuple(sorted((A, rank(pb), rank(compose(pb, t))))))
    return sorted(triples)


@pytest.mark.slow
def test_every_n7_rotation_reaches_its_finish_once(monkeypatch):
    """``_route_cyclic`` tries one candidate: on every n = 7 rotation
    triple it reaches ``_finish_cyclic`` exactly once, at a bridged step
    with the tally {ab 1, ac 2, bc 1}, so the first cross edge of every
    bridged triple has both flows, its a*-b* path and that tally."""
    calls = []

    def finish(g, K, roles, j, tally, tagged_cross, seed, regime):
        calls.append((regime, tally))
        return "finished"

    monkeypatch.setattr(tripaths.construct, "_finish_cyclic", finish)
    regimes = Counter()
    for tri in _rotation_triples(G7):
        calls.clear()
        rot = tripaths.construct._detect_cyclic_triple(G7, tri)
        got = tripaths.construct._route_cyclic(G7, G7.copy_id[tri[0]], rot, 0)
        assert got == "finished" and len(calls) == 1, (tri, calls)
        regime, tally = calls[0]
        if regime.startswith("bridged"):
            assert tally == {"ab": 1, "ac": 2, "bc": 1}, (tri, tally)
        regimes[regime] += 1
    assert regimes == {"paired-j2": 1680, "bridged-j3": 1680,
                       "bridged-j4": 1680, "paired-j5": 1680}, regimes


def test_n7_sample_needs_no_fallback():
    report = pi3_lower(G7, sample_triples(G7, 60, 1), seed=1)
    assert report.value == formula_value(7) == 8
    assert report.failures == [] and report.fallback_count == 0
    assert {CASE_1_1, CASE_2, CASE_3_1} <= set(report.case_counts), report.case_counts


@pytest.mark.slow
def test_n8_sample_needs_no_fallback():
    """30 sampled n = 8 triples, one ``pi3_lower`` call each (a call seeds
    every triple from the triple itself, so the calls add up to one call
    over all 30); prints the worst per-triple time."""
    g8 = build(8, Family.WHEEL)
    report = LowerBoundReport(value=0, evaluated=0)
    times = []
    for tri in sample_triples(g8, 30, 1):
        t0 = time.perf_counter()
        report.merge(pi3_lower(g8, [tri], seed=1))
        times.append((time.perf_counter() - t0, tri))
    worst_s, worst = max(times)
    print(f"n = 8: slowest triple {worst} took {worst_s:.2f} s, "
          f"all 30 took {sum(t for t, _ in times):.1f} s")
    assert report.evaluated == 30
    assert report.value == formula_value(8) == 9
    assert report.failures == [] and report.fallback_count == 0


# one triple per case route: Even at n = 4, the odd routes at n = 5, and
# OddCase3_3, which no n = 5 triple reaches, at n = 7
ONE_PER_CASE = [
    (CASE_EVEN, G4, (0, 3, 4)),
    (CASE_1_1, G5, (25, 44, 110)),
    (CASE_1_2_1, G5, (13, 22, 92)),
    (CASE_1_2_2, G5, (57, 83, 105)),
    (CASE_2, G5, (40, 89, 97)),
    (CASE_3_1, G5, (26, 65, 92)),
    (CASE_3_2, G5, (3, 53, 57)),
    (CASE_3_3, G7, (957, 1108, 3678)),
]


@pytest.mark.parametrize("case_id, g, omega", ONE_PER_CASE,
                         ids=[case_id for case_id, _, _ in ONE_PER_CASE])
def test_each_structure_is_checked_once(case_id, g, omega, monkeypatch):
    # count check_tripod calls at every place a tripaths module binds it
    original = tripaths.verification.check_tripod
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].omega)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "tripaths" or name.startswith("tripaths."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    structure, trace = build_structure(g, omega, seed=0)
    omega_set = pair_structure(full_view(g), structure)
    assert trace.case_id == case_id
    assert len(omega_set) == (6 * g.n - 9) // 4
    assert len(calls) == 1, calls


class _Planned(Exception):
    pass


def _raise_plan(g, roles, chat_copies, plan):
    raise _Planned(roles, plan)


def _check_plan(g, outs, tri, roles, plan):
    """The plan invariants the three-copy executor relies on, among them
    the tally that lets it skip a bundle count check: slice matches,
    extras and directs by tag, one chat path per owned end (ac where a
    owns it, bc otherwise) and the bridge hit standard_target(n)."""
    a, b, c = roles
    cid = g.copy_id
    term_copies = {cid[v] for v in tri}
    doors = {v: [w for w in outs[v] if cid[w] not in term_copies] for v in tri}
    assert sorted(roles) == list(tri)
    assert all(doors[v] for v in tri), (tri, doors)
    # one chat path closes at each end: owned doors plus the bridge end
    ends = len(plan["y_owner"]) + (plan["bridge"] is not None)
    assert ends == len(plan["chat_x"]) and plan["chat_x"] == sorted(doors[c])[:ends]
    for y, owner in plan["y_owner"].items():
        assert owner in (a, b) and y in doors[owner], (tri, y, owner)
    tally = Counter(dict(zip(("ab", "ac", "bc"), plan["xsizes"])))
    tally.update(tag for _root, _target, _far, tag in plan["extras"])
    tally.update(tag for tag, _path in plan["directs"])
    tally.update("ac" if owner == a else "bc" for owner in plan["y_owner"].values())
    if plan["bridge"] is not None:
        tally[plan["bridge"][1]] += 1
    assert (tally["ab"], tally["ac"], tally["bc"]) == standard_target(g.n).as_tuple(), tri
    if plan["bridge"] is not None:
        assert plan["bridge"] == (a, "ac")
        assert doors[a] == doors[b] == [plan["aux"]["shared_door"]]
        for v in (a, b):
            assert any(w == c or cid[w] == cid[c] for w in outs[v]), (tri, v)
    return plan["bridge"] is not None


def _bridged_plans(g, triples):
    """Check the plan of every triple, stopping before any flow runs;
    returns how many plans leave through a bridge."""
    outs = [outside_neighbors(g, v) for v in range(len(g.copy_id))]
    bridged = 0
    for tri in triples:
        try:
            tripaths.construct._three_copies(g, tri)
        except _Planned as planned:
            bridged += _check_plan(g, outs, tri, *planned.args)
        else:
            raise AssertionError(f"no plan for {tri}")
    return bridged


def test_three_copy_plans_name_an_owner_for_every_chat_end(monkeypatch):
    monkeypatch.setattr(tripaths.construct, "_execute_three", _raise_plan)
    by_copy = G5.copy_members
    every_n5 = (tuple(sorted(t)) for ks in itertools.combinations(sorted(by_copy), 3)
                for t in itertools.product(*(by_copy[k] for k in ks)))
    sampled_n7 = [t for t in sample_triples(G7, 300, 1) if len({G7.copy_id[v] for v in t}) == 3]
    assert len(sampled_n7) == 100
    assert _bridged_plans(G5, every_n5) + _bridged_plans(G7, sampled_n7) > 0


def test_chat_flows_get_distinct_ends_one_per_door(monkeypatch):
    """``_execute_three`` lets only InsufficientConnectivity out of its
    fan and chat flows end in a miss: ``k_fan`` raises ValueError on a
    repeated target or a root among its targets, ``disjoint_set_paths``
    on a repeated terminal or on more paths than terminals.  Every fan
    gets distinct targets other than its root, and every chat flow gets
    distinct doors and distinct ends, one end per door."""
    module = tripaths.construct
    execute, flow, fan = module._execute_three, module.disjoint_set_paths, module.k_fan
    inside, seen, runs, fans = [], set(), [], []

    def executed(g, *args):
        runs.append(g.n)
        inside.append(g.n)
        try:
            return execute(g, *args)
        finally:
            inside.pop()

    def checked(view, xs, ys, k, order_seed=None):
        if inside:
            assert len(set(xs)) == len(xs) == k == len(ys) == len(set(ys)), (xs, ys, k)
            seen.add((inside[-1], k))
        return flow(view, xs, ys, k, order_seed=order_seed)

    def fanned(view, x, targets, k, order_seed=None):
        if inside:
            assert len(set(targets)) == len(targets) == k, (x, targets)
            assert x not in targets, (x, targets)
            fans.append(x)
        return fan(view, x, targets, k, order_seed=order_seed)

    monkeypatch.setattr(module, "_execute_three", executed)
    monkeypatch.setattr(module, "disjoint_set_paths", checked)
    monkeypatch.setattr(module, "k_fan", fanned)
    for g, count in ((G5, 600), (G7, 60)):
        for tri in sample_triples(g, count, 1):
            if len({g.copy_id[v] for v in tri}) == 3:
                build_structure(g, tri, seed=1)
    build_structure(G5, BRIDGED_N5, seed=1)
    build_structure(G7, (957, 1108, 3678), seed=1)  # OddCase3_3: three chat ends
    # OddCase3_3 at h = 3 for every terminal: all nine outside neighbours
    # lie in non-terminal copies, so the roles stay in ascending order
    structure, trace = build_structure(G7, (11, 760, 776), seed=1)
    assert trace.case_id == CASE_3_3 and not trace.fallback
    assert trace.roles == {"a": 11, "b": 760, "c": 776}
    assert len(pair_structure(full_view(G7), structure)) == 8
    assert seen == {(5, 1), (5, 2), (7, 2), (7, 3)}, seen
    assert len(fans) == 3 * len(runs) > 0  # one fan per terminal


def test_copy_mates_have_distinct_outside_neighbors():
    """``_outside_detours`` needs no check that its eight ends differ:
    they are outside neighbors of four members of one copy, and the
    3 (n-1)! outside neighbors of a copy's members are pairwise distinct
    (u s = v t with s != t puts v(n) = u(j) != u(n), so v is no copy-mate)."""
    for n in range(4, 9):
        g = G4 if n == 4 else G5 if n == 5 else G7 if n == 7 else build(n, Family.WHEEL)
        outside = set(g.outside_gens)
        for copy, members in g.copy_members.items():
            outs = [w for v in members for w, gi in zip(g.nbrs[v], g.nbr_gens[v])
                    if gi in outside]
            assert len(outs) == len(set(outs)) == 3 * len(members), (n, copy)
            assert not set(outs) & set(members), (n, copy)


def _return_none_lines():
    """Line number and text of every ``return None`` in construct.py."""
    path = pathlib.Path(tripaths.construct.__file__)
    lines = path.read_text().splitlines()
    return {node.lineno: lines[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
            and node.value.value is None}


def _construct_lines_run(run):
    """Lines of construct.py that run(), traced, executes."""
    path = tripaths.construct.__file__
    hit = set()

    def in_frame(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
        return in_frame

    def on_call(frame, event, arg):
        return in_frame if frame.f_code.co_filename == path else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return hit


def _falls_short(*args, **kwargs):
    raise InsufficientConnectivity("forced shortfall")


def _solves_only_the_whole_graph(view, *args):
    if view.allowed is None and isinstance(view.graph, CayleyGraph):
        return REAL_SOLVE(view, *args)
    return TripodFailure("forced failure", 0, 0)


def _no_star_images_in_chat_copies(g, copy):
    held = {g.copy_id[v] for v in BRIDGED_N5}
    return [(w, ws) for w, ws in REAL_STAR_PAIRS(g, copy) if g.copy_id[ws] in held]


def _no_path_around_avoided(view, u, v, avoid=frozenset()):
    return None if avoid else REAL_SHORTEST_PATH(view, u, v)


REAL_SOLVE = tripaths.construct.solve_tripod
REAL_STAR_PAIRS = tripaths.construct._star_pairs
REAL_SHORTEST_PATH = tripaths.construct.shortest_path
BRIDGED_N5 = (15, 33, 46)  # OddCase3_1 whose plan leaves through a bridge
BRIDGED_N7 = (0, 1584, 2280)  # test_bridged_rotation_regime_n7's triple
REANCHORED_N7 = (51, 1569, 3027)  # its triple that re-anchors the star copy

# (name in tripaths.construct, stand-in, graph, triple, what gives up):
# each stand-in makes the triple's route give up, so it must fall back
FORCED_MISSES = [
    ("solve_tripod", _solves_only_the_whole_graph, G4, (0, 3, 4), "Even"),
    ("solve_tripod", _solves_only_the_whole_graph, G5, (57, 83, 105), "rotation, bases"),
    ("disjoint_set_paths", _falls_short, G5, (25, 44, 110), "OddCase1_1 detours"),
    ("disjoint_set_paths", _falls_short, G5, (13, 22, 92), "OddCase1_2_1 detours"),
    ("disjoint_set_paths", _falls_short, G7, BRIDGED_N7, "first cross edge"),
    ("shortest_path", lambda *args, **kwargs: None, G7, BRIDGED_N7, "plus path"),
    ("shortest_path", _no_path_around_avoided, G7, REANCHORED_N7, "re-anchored a*-b* path"),
    ("max_internally_disjoint_paths", lambda *args, **kwargs: PathFamily(()),
     G5, (40, 89, 97), "OddCase2 harvest"),
    ("k_fan", _falls_short, G5, (40, 89, 97), "OddCase2 fan"),
    ("_slice_pool", lambda *args: [], G5, (26, 65, 92), "OddCase3_1 pools"),
    ("k_fan", _falls_short, G5, (26, 65, 92), "OddCase3_1 fans"),
    ("disjoint_set_paths", _falls_short, G5, (26, 65, 92), "OddCase3_1 chat"),
    ("_star_pairs", _no_star_images_in_chat_copies, G5, BRIDGED_N5, "bridge"),
]


def test_every_return_none_in_construct_runs(monkeypatch):
    """Every ``return None`` in construct.py runs, and a triple whose route
    gives up still ends in a valid structure: each stand-in forces a miss,
    the triple falls back, and a trace of all the runs must reach every
    ``return None`` line, so a bail-out that cannot fire fails here."""
    def forced():
        for name, stand_in, g, omega, what in FORCED_MISSES:
            with monkeypatch.context() as patched:
                patched.setattr(tripaths.construct, name, stand_in)
                _, trace = _check(g, omega)
            assert trace.case_id == CASE_FALLBACK and trace.fallback, what

    hit = _construct_lines_run(forced)
    missed = {no: text for no, text in _return_none_lines().items() if no not in hit}
    assert missed == {}
