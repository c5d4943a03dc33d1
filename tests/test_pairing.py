"""Pairing arithmetic and the bound machinery."""

import dataclasses
import itertools
import random

import pytest

import tripaths.pairing
from tripaths.construct import build_structure
from tripaths.errors import InvalidStructure
from tripaths.graphs import Path, build, full_view
from tripaths.pairing import (
    LowerBoundReport,
    optimal_split,
    pair_structure,
    pi3_lower,
    sample_triples,
)
from tripaths.perms import Family
from tripaths.verification import (
    TripodStructure,
    check_omega_path_set,
    formula_value,
    max_triple_common_neighbors,
    pairing_capacity,
    pi3_upper,
    standard_target,
)


def _brute_capacity(x, y, z):
    best = 0
    for mu_a in range(min(x, y) + 1):
        for mu_b in range(min(x - mu_a, z) + 1):
            mu_c = min(y - mu_a, z - mu_b)
            best = max(best, mu_a + mu_b + mu_c)
    return best


def test_capacity_hand_values():
    assert pairing_capacity(2, 2, 2) == 3
    assert pairing_capacity(2, 4, 4) == 5
    assert pairing_capacity(0, 1, 5) == 1
    assert pairing_capacity(0, 0, 9) == 0
    assert pairing_capacity(1, 1, 1) == 1


def test_capacity_brute_oracle_full_box():
    for x in range(21):
        for y in range(21):
            for z in range(21):
                assert pairing_capacity(x, y, z) == _brute_capacity(x, y, z), (x, y, z)


def test_optimal_split_respects_bundles():
    for x, y, z in itertools.product(range(25), repeat=3):
        mu_a, mu_b, mu_c = optimal_split(x, y, z)
        assert mu_a + mu_b + mu_c == pairing_capacity(x, y, z)
        assert mu_a + mu_b <= x
        assert mu_a + mu_c <= y
        assert mu_b + mu_c <= z


def test_optimal_split_without_a_split_is_a_typed_error(monkeypatch):
    """A capacity no split reaches raises InvalidStructure."""
    monkeypatch.setattr(tripaths.pairing, "pairing_capacity", lambda x, y, z: x + y + z)
    with pytest.raises(InvalidStructure, match="no split"):
        optimal_split(2, 2, 2)


def test_split_hand_values():
    assert optimal_split(2, 2, 2) == (1, 1, 1)
    assert optimal_split(2, 4, 4) == (1, 1, 3)
    assert optimal_split(0, 1, 5) == (0, 0, 1)


def test_formula_identity_with_targets():
    for n in range(4, 101):
        t = standard_target(n)
        assert pairing_capacity(*t.as_tuple()) == formula_value(n)


def test_formula_values():
    assert [formula_value(n) for n in range(4, 9)] == [3, 5, 6, 8, 9]


def test_pair_structure_on_built_triples():
    g = build(4, Family.WHEEL)
    view = full_view(g)
    rng = random.Random(6)
    for _ in range(20):
        omega = tuple(sorted(rng.sample(range(24), 3)))
        structure, _ = build_structure(g, omega, seed=1)
        omega_set = pair_structure(view, structure)
        assert len(omega_set) == 3
        verdict = check_omega_path_set(view, omega, omega_set.paths)
        assert verdict.ok, verdict.violations


def test_pair_structure_rejects_bad_input():
    g = build(4, Family.WHEEL)
    view = full_view(g)
    omega = (0, 3, 4)
    structure, _ = build_structure(g, omega, seed=0)
    broken = TripodStructure(
        omega,
        structure.bundle_ab[:1] + (Path((0, 0, 3)),),
        structure.bundle_ac,
        structure.bundle_bc)
    with pytest.raises(InvalidStructure):
        pair_structure(view, broken)


def test_pi3_lower_records_a_rejected_structure_as_a_failure(monkeypatch):
    def broken(g, omega, **kwargs):
        structure, trace = build_structure(g, omega, **kwargs)
        a, b, _ = structure.omega
        bad = structure.bundle_ab[:1] + (Path((a, a, b)),)
        return dataclasses.replace(structure, bundle_ab=bad), trace

    monkeypatch.setattr(tripaths.pairing, "build_structure", broken)
    g = build(4, Family.WHEEL)
    rep = pi3_lower(g, [(0, 3, 4), (1, 5, 9)])
    assert rep.evaluated == 2
    assert [tri for tri, _ in rep.failures] == [(0, 3, 4), (1, 5, 9)]
    assert "repeats" in rep.failures[0][1]
    assert rep.case_counts == {}


def test_upper_bound_values():
    assert pi3_upper(build(4, Family.WHEEL)).value == 3
    rep = pi3_upper(build(5, Family.WHEEL))
    assert rep.value == 5
    assert rep.connectivity == 8
    assert rep.r == 3
    assert rep.witness is not None
    # the bubble-sort-star family has degree 2n - 3
    for n, value, connectivity in ((4, 3, 5), (5, 4, 7)):
        rep = pi3_upper(build(n, Family.BUBBLE_SORT_STAR))
        assert (rep.value, rep.connectivity, rep.r) == (value, connectivity, 3)


def test_max_triple_common_neighbors_witness():
    """The witness, read straight from ``g.nbrs``: three pairwise
    non-adjacent vertices of degree k = 2n - 2 with r = 3 common
    neighbours, so the bound floor((3k - r) / 4) is the formula."""
    for n in (4, 5, 6, 7):
        g = build(n, Family.WHEEL)
        r, witness = max_triple_common_neighbors(g)
        assert r == 3
        nbr = {v: set(g.nbrs[v]) for v in witness}
        u, v, w = witness
        assert v not in nbr[u] and w not in nbr[u] and w not in nbr[v]
        assert len(nbr[u] & nbr[v] & nbr[w]) == 3
        assert {len(ws) for ws in nbr.values()} == {2 * n - 2}
        assert (3 * (2 * n - 2) - r) // 4 == pi3_upper(g).value == formula_value(n)


def test_sample_triples_stratified():
    g = build(5, Family.WHEEL)
    triples = sample_triples(g, 300, seed=0)
    assert len(triples) == 300
    assert len(set(triples)) == 300
    spreads = {1: 0, 2: 0, 3: 0}
    for tri in triples:
        spreads[len({g.copy_id[v] for v in tri})] += 1
    assert min(spreads.values()) >= 90


def test_sample_triples_takes_a_whole_stratum():
    g = build(4, Family.WHEEL)
    triples = sample_triples(g, 240, seed=0)
    assert len(set(triples)) == 240
    assert sum(1 for tri in triples if len({g.copy_id[v] for v in tri}) == 1) == 80


def test_sample_triples_rejects_quota_beyond_stratum():
    g = build(4, Family.WHEEL)
    with pytest.raises(ValueError, match="only 80"):
        sample_triples(g, 241, seed=0)


def test_sample_triples_deterministic():
    g = build(5, Family.WHEEL)
    assert sample_triples(g, 50, seed=3) == sample_triples(g, 50, seed=3)
    assert sample_triples(g, 50, seed=3) != sample_triples(g, 50, seed=4)


def test_pi3_lower_small_batch():
    g = build(5, Family.WHEEL)
    triples = sample_triples(g, 30, seed=12)
    rep = pi3_lower(g, triples, seed=12)
    assert rep.value == 5
    assert rep.evaluated == 30
    assert not rep.failures
    assert rep.fallback_count == 0
    assert sum(rep.case_counts.values()) == 30


def test_pi3_lower_order_independent():
    g = build(5, Family.WHEEL)
    triples = sample_triples(g, 20, seed=9)
    forward = pi3_lower(g, triples, seed=9)
    backward = pi3_lower(g, list(reversed(triples)), seed=9)
    assert forward.value == backward.value
    assert forward.case_counts == backward.case_counts


def test_lower_bound_merge_equals_one_run():
    g = build(5, Family.WHEEL)
    triples = sample_triples(g, 24, seed=3)
    whole = pi3_lower(g, triples, seed=3)
    merged = pi3_lower(g, triples[:10], seed=3)
    merged.merge(pi3_lower(g, triples[10:], seed=3))
    assert merged == whole


def test_lower_bound_merge_keeps_successes_of_a_failing_run():
    failing = LowerBoundReport(value=5, evaluated=3, case_counts={"Even": 2},
                               failures=[((0, 1, 2), "boom")],
                               worst_triple=(3, 4, 5))
    total = LowerBoundReport(value=0, evaluated=0)
    total.merge(failing)
    total.merge(LowerBoundReport(value=6, evaluated=1, case_counts={"Even": 1},
                                 worst_triple=(6, 7, 8)))
    assert (total.value, total.worst_triple, total.evaluated) == (5, (3, 4, 5), 4)
    assert total.case_counts == {"Even": 3}
    assert total.failures == [((0, 1, 2), "boom")]
