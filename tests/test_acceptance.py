"""Acceptance gates.

Eight claims, one test and one printed PASS line each.  The two sweep
fixtures are shared: criterion 1/2 read path counts, criterion 3 reads
bundle shapes and verifier outcomes, criterion 6 reads the omega-set
verdicts.  Budgets are asserted but generous; the sweeps run in seconds.
"""

import itertools
import math
import random
import time

import pytest

from tripaths import (
    Family,
    build,
    build_structure,
    check_internally_disjoint,
    check_omega_path_set,
    check_tripod,
    common_neighbors,
    copy_of,
    copy_union,
    cross_edges,
    delete_copies,
    emit,
    formula_value,
    full_view,
    local_connectivity,
    make_certificate,
    max_internally_disjoint_paths,
    max_triple_common_neighbors,
    min_vertex_cut,
    pair_structure,
    pairing_capacity,
    pi3_upper,
    run_lemma_suite,
    sample_triples,
    shortest_path,
    standard_target,
    vertex_connectivity,
)
from tripaths.oracle import exact_pi

G4 = build(4, Family.WHEEL)
G5 = build(5, Family.WHEEL)
V4 = full_view(G4)
V5 = full_view(G5)


def _sweep(g, view, triples):
    target = standard_target(g.n)
    out = {
        "sizes": [], "counts": set(), "strata": {1: 0, 2: 0, 3: 0},
        "fallbacks": 0, "tripod_fails": 0, "omega_fails": 0,
    }
    t0 = time.perf_counter()
    for tri in triples:
        structure, trace = build_structure(g, tri, seed=0)
        omega_set = pair_structure(view, structure)
        out["sizes"].append(len(omega_set))
        out["counts"].add(structure.counts())
        out["strata"][len({copy_of(g, v) for v in tri})] += 1
        out["fallbacks"] += bool(trace.fallback)
        out["tripod_fails"] += not check_tripod(view, structure, target).ok
        out["omega_fails"] += not check_omega_path_set(
            view, structure.omega, omega_set.paths).ok
    out["elapsed"] = time.perf_counter() - t0
    out["n_triples"] = len(out["sizes"])
    return out


@pytest.fixture(scope="module")
def sweep4():
    return _sweep(G4, V4, itertools.combinations(range(G4.vertex_count), 3))


@pytest.fixture(scope="module")
def sweep5():
    return _sweep(G5, V5, sample_triples(G5, 1000, seed=0))


def test_criterion_1_formula_n4_exhaustive(sweep4):
    assert sweep4["n_triples"] == 2024
    assert min(sweep4["sizes"]) >= 3
    upper = pi3_upper(G4)
    assert upper.value == 3
    assert exact_pi(V4, upper.witness) == 3
    assert sweep4["elapsed"] < 300
    print(f"[PRIMARY 1] PASS  pi3(CW_4) = 3: all 2024 triples give >= 3 "
          f"omega paths, upper bound 3, witness {upper.witness} exact at 3 "
          f"({sweep4['elapsed']:.1f}s)")


def test_criterion_2_formula_n5_sampled(sweep5):
    assert sweep5["n_triples"] >= 1000
    assert min(sweep5["sizes"]) >= 5
    assert all(sweep5["strata"][k] > 0 for k in (1, 2, 3))
    upper = pi3_upper(G5)
    assert upper.value == 5
    assert upper.r == 3
    assert sweep5["elapsed"] < 1800
    print(f"[PRIMARY 2] PASS  pi3(CW_5) = 5: {sweep5['n_triples']} triples "
          f"(strata {dict(sweep5['strata'])}) all give >= 5, upper bound 5 "
          f"({sweep5['elapsed']:.1f}s)")


def test_criterion_3_structure_counts(sweep4, sweep5):
    assert sweep4["counts"] == {(2, 2, 2)}
    assert sweep5["counts"] == {(2, 4, 4)}
    assert sweep4["tripod_fails"] == 0 and sweep5["tripod_fails"] == 0
    assert sweep4["fallbacks"] == 0 and sweep5["fallbacks"] == 0
    print("[PRIMARY 3] PASS  bundles (2,2,2) at n=4 and (2,4,4) at n=5, "
          "verifier clean on every structure, zero fallbacks")


def test_criterion_4_lemma_suite():
    for g in (G4, G5):
        want = 3 * math.factorial(g.n - 2)
        for i, j in itertools.combinations(range(1, g.n + 1), 2):
            assert len(cross_edges(g, i, j)) == want, (g.n, i, j)

    kappas = {}
    for n, want in ((3, 3), (4, 5)):
        bs = build(n, Family.BUBBLE_SORT_STAR)
        bv = full_view(bs)
        kappas[n] = min(
            local_connectivity(bv, u, v)
            for u, v in itertools.combinations(range(bs.vertex_count), 2))
        assert kappas[n] == want

    cap = max(len(common_neighbors(G4, pair))
              for pair in itertools.combinations(range(G4.vertex_count), 2))
    assert cap <= 3

    for g in (G4, G5):
        r, witness = max_triple_common_neighbors(g)
        assert r == 3 and witness is not None
        assert len(common_neighbors(g, witness)) == 3

    for c in range(1, 5):
        sub = delete_copies(G4, {c})
        verts = sub.vertices()
        worst = min(local_connectivity(sub, u, v)
                    for u, v in itertools.combinations(verts, 2))
        assert worst >= 4, c

    for size in (2, 3, 4):
        for combo in itertools.combinations(range(1, 5), size):
            assert vertex_connectivity(copy_union(G4, combo)) >= 3, combo

    for n in (4, 5):
        rows = run_lemma_suite(n)
        assert all(r.passed for r in rows), [r.name for r in rows if not r.passed]

    print(f"[PRIMARY 4] PASS  cross-edge counts, kappa(BS_3)={kappas[3]} and "
          f"kappa(BS_4)={kappas[4]} over all pairs, shared-neighbor cap {cap}, "
          f"r=3 witnesses, copy-deletion >= 4, unions >= 3, suite rows clean")


def test_criterion_5_pairing_oracle():
    for x in range(21):
        for y in range(21):
            for z in range(21):
                best = 0
                for mu_a in range(min(x, y) + 1):
                    for mu_b in range(min(x - mu_a, z) + 1):
                        best = max(best, mu_a + mu_b + min(y - mu_a, z - mu_b))
                assert pairing_capacity(x, y, z) == best, (x, y, z)
    for n in range(4, 101):
        assert pairing_capacity(*standard_target(n).as_tuple()) == formula_value(n)
    print("[PRIMARY 5] PASS  pairing capacity matches brute force on "
          "[0,20]^3 and the floor((6n-9)/4) identity holds for 4 <= n <= 100")


def test_criterion_6_menger_duality(sweep4, sweep5):
    rng = random.Random(11)
    for g, view in ((G4, V4), (G5, V5)):
        checked = 0
        while checked < 200:
            u = rng.randrange(g.vertex_count)
            v = rng.randrange(g.vertex_count)
            if u == v or view.adjacent(u, v):
                continue
            fam = max_internally_disjoint_paths(view, u, v)
            cut = min_vertex_cut(view, u, v)
            assert len(fam) == len(cut.vertices), (g.n, u, v)
            assert check_internally_disjoint(view, u, v, fam).ok
            assert shortest_path(view.without(set(cut.vertices)), u, v) is None
            checked += 1
    assert sweep4["omega_fails"] == 0 and sweep5["omega_fails"] == 0
    print("[PRIMARY 6] PASS  family size equals cut size on 200 non-adjacent "
          "pairs at each of n=4,5; every emitted family, omega set, and "
          "structure passed the independent verifier")


def test_criterion_7_n6_smoke():
    t0 = time.perf_counter()
    g6 = build(6, Family.WHEEL)
    v6 = full_view(g6)
    upper = pi3_upper(g6)
    assert upper.value == 6
    sizes = []
    for tri in sample_triples(g6, 50, seed=0):
        structure, _ = build_structure(g6, tri, seed=0)
        sizes.append(len(pair_structure(v6, structure)))
    elapsed = time.perf_counter() - t0
    assert min(sizes) >= 6
    assert elapsed < 3600
    print(f"[PRIMARY 7] PASS  n=6 smoke: 50 triples all give >= 6 omega "
          f"paths, upper bound 6 ({elapsed:.1f}s)")


def test_criterion_8_deterministic_certificates():
    for n in (4, 5):
        emitted = []
        for _ in range(2):
            g = build(n, Family.WHEEL)
            tri = sample_triples(g, 1, seed=5)[0]
            structure, trace = build_structure(g, tri, seed=3)
            omega_set = pair_structure(full_view(g), structure)
            cert = make_certificate(g, structure, trace, omega_set)
            emitted.append(emit(cert).encode())
        assert emitted[0] == emitted[1], n
    print("[PRIMARY 8] PASS  same-seed runs emit byte-identical "
          "certificates at n=4 and n=5")
