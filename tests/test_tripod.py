"""Tripod solving and the exact pairing oracle on small instances."""

import itertools
import random

import pytest

from tripaths import oracle
from tripaths.errors import (
    DuplicateVertices,
    OracleScaleExceeded,
    RankOutOfRange,
    TripathsError,
)
from tripaths.graphs import (
    AdjacencyView,
    build,
    common_neighbors,
    full_view,
    spanning_intra_view,
)
from tripaths.oracle import exact_pi
from tripaths.pairing import pairing_capacity, pi3_upper, sample_triples
from tripaths.perms import Family
from tripaths.tripod import (
    StructureTarget,
    TripodFailure,
    solve_tripod,
    standard_target,
)
from tripaths.verification import check_tripod


def test_standard_target():
    assert standard_target(4).as_tuple() == (2, 2, 2)
    assert standard_target(5).as_tuple() == (2, 4, 4)
    assert standard_target(6).as_tuple() == (4, 4, 4)
    assert standard_target(7).as_tuple() == (4, 6, 6)
    assert standard_target(8).as_tuple() == (6, 6, 6)


def test_solve_on_bss4():
    g = build(4, Family.BUBBLE_SORT_STAR)
    view = full_view(g)
    target = StructureTarget(2, 2, 2)
    rng = random.Random(23)
    for _ in range(25):
        omega = tuple(rng.sample(range(24), 3))
        res = solve_tripod(view, omega, target)
        assert not isinstance(res, TripodFailure), omega
        verdict = check_tripod(view, res, target)
        assert verdict.ok, (omega, verdict.violations)


def test_solve_inside_spanning_subgraph_n4():
    g = build(4, Family.WHEEL)
    view = spanning_intra_view(g)
    target = standard_target(4)
    rng = random.Random(4)
    for _ in range(25):
        omega = tuple(rng.sample(range(24), 3))
        res = solve_tripod(view, omega, target)
        assert not isinstance(res, TripodFailure), omega
        verdict = check_tripod(view, res, target)
        assert verdict.ok, (omega, verdict.violations)


def test_bad_inputs_raise_typed_errors():
    # typed errors, so the checks hold under python -O as well
    g = build(4, Family.WHEEL)
    view = full_view(g)
    target = standard_target(4)
    with pytest.raises(DuplicateVertices):
        solve_tripod(view, (0, 3, 3), target)
    with pytest.raises(RankOutOfRange):
        solve_tripod(view, (0, 3, 24), target)
    with pytest.raises(RankOutOfRange):
        solve_tripod(spanning_intra_view(g).without({4}), (0, 3, 4), target)
    with pytest.raises(ValueError):
        pairing_capacity(2, -1, 2)


@pytest.mark.parametrize("target", [(0, 2, 2), (2, 0, 2), (2, 2, 0), (0, 3, 3)])
def test_solve_targets_with_a_zero_bundle(target):
    # a zero bundle is the third bundle for one pivot: its flow asks for
    # no path and the structure keeps that bundle empty
    g = build(4, Family.WHEEL)
    view = full_view(g)
    target = StructureTarget(*target)
    rng = random.Random(7)
    for _ in range(10):
        omega = tuple(rng.sample(range(24), 3))
        res = solve_tripod(view, omega, target)
        assert not isinstance(res, TripodFailure), omega
        assert res.counts() == target.as_tuple()
        verdict = check_tripod(view, res, target)
        assert verdict.ok, (omega, verdict.violations)


def test_target_beyond_connectivity_is_infeasible():
    g = build(4, Family.BUBBLE_SORT_STAR)
    view = full_view(g)
    res = solve_tripod(view, (0, 7, 18), StructureTarget(4, 4, 4))
    assert isinstance(res, TripodFailure)
    assert res.certified_infeasible


def test_exact_pi_triangle():
    k3 = AdjacencyView({0: [1, 2], 1: [2]})
    assert exact_pi(k3, (0, 1, 2)) == 1


def test_exact_pi_path():
    p4 = AdjacencyView({0: [1], 1: [2], 2: [3]})
    assert exact_pi(p4, (0, 1, 3)) == 1


def test_exact_pi_theta():
    # three parallel strands between 0 and 3; terminals sit on one strand
    theta = AdjacencyView({
        0: [1, 4, 6], 1: [2], 2: [3], 4: [5], 5: [3], 6: [3]})
    assert exact_pi(theta, (0, 2, 3)) == 2


def test_exact_pi_k4():
    k4 = AdjacencyView({0: [1, 2, 3], 1: [2, 3], 2: [3]})
    # paths b-a-c, b-c (direct edge through neither), plus none left: the
    # fourth vertex gives one detour, total 2 with interior budget 1
    assert exact_pi(k4, (0, 1, 2)) == 2


def test_exact_pi_matches_pairing_on_wheel_witness():
    g = build(4, Family.WHEEL)
    view = full_view(g)
    assert exact_pi(view, (0, 3, 4)) == 3


def test_exact_pi_on_sampled_wheel_triples_n4():
    # over all 2,024 triples at n = 4 the optimum is 4 when omega holds an
    # edge, and otherwise the degree bound floor((3k - r) / 4) with k = 6
    # and r common neighbours of the triple
    g = build(4, Family.WHEEL)
    view = full_view(g)
    triples = sample_triples(g, 24, 1) + [pi3_upper(g).witness]
    for omega in triples:
        if any(view.adjacent(u, v) for u, v in itertools.combinations(omega, 2)):
            want = 4
        else:
            want = (3 * 6 - len(common_neighbors(g, omega))) // 4
        assert exact_pi(view, omega) == want, omega


def test_exact_pi_scale_cap():
    g = build(5, Family.WHEEL)
    with pytest.raises(OracleScaleExceeded):
        exact_pi(full_view(g), (0, 1, 2))


def test_exact_pi_bad_inputs_raise_typed_errors(monkeypatch):
    k3 = AdjacencyView({0: [1, 2], 1: [2]})
    with pytest.raises(DuplicateVertices):
        exact_pi(k3, (0, 1, 1))
    with pytest.raises(RankOutOfRange):
        exact_pi(k3, (0, 1, 7))

    class Failed:
        status, message = 2, "the problem is infeasible"

    monkeypatch.setattr(oracle, "milp", lambda *args, **kwargs: Failed())
    with pytest.raises(TripathsError, match="infeasible"):
        exact_pi(k3, (0, 1, 2))


def test_solver_deterministic():
    g = build(4, Family.WHEEL)
    view = spanning_intra_view(g)
    target = standard_target(4)
    one = solve_tripod(view, (0, 8, 17), target, seed=2)
    two = solve_tripod(view, (0, 8, 17), target, seed=2)
    assert [p.vertices for p in one.bundle_ab] == [p.vertices for p in two.bundle_ab]
    assert [p.vertices for p in one.bundle_ac] == [p.vertices for p in two.bundle_ac]
    assert [p.vertices for p in one.bundle_bc] == [p.vertices for p in two.bundle_bc]
