"""Exact structural invariants of the two families at desk scale.

Every row recomputes its claim from the graph; nothing is cached from
construction runs.  The fault switch removes one cross edge from the
counted edge set so the suite demonstrably can fail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

from .flows import local_connectivity, vertex_connectivity
from .graphs import (
    build,
    copy_union,
    cross_edges,
    delete_copies,
    full_view,
    outside_neighbors,
)
from .perms import Family, generator_set
from .verification import max_triple_common_neighbors


@dataclass(frozen=True)
class LemmaRow:
    name: str
    passed: bool
    detail: str


def run_lemma_suite(n: int, inject_fault: bool = False) -> list[LemmaRow]:
    rows: list[LemmaRow] = []
    g = build(n, Family.WHEEL)
    bss = build(n, Family.BUBBLE_SORT_STAR)

    s1 = generator_set(Family.BUBBLE_SORT_STAR, n)
    s2 = generator_set(Family.WHEEL, n)
    rows.append(LemmaRow(
        "generator-set-sizes",
        len(s1) == 2 * n - 3 and len(s2) == 2 * n - 2,
        f"|S1|={len(s1)} |S2|={len(s2)}"))

    expected_cross = 3 * factorial(n - 2)
    bad = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        edges = cross_edges(g, i, j)
        if inject_fault and (i, j) == (1, 2):
            edges = edges[1:]
        if len(edges) != expected_cross:
            bad.append((i, j, len(edges)))
    rows.append(LemmaRow(
        "cross-edge-counts",
        not bad,
        f"every copy pair carries {expected_cross} edges" if not bad
        else f"off at {bad[:3]}"))

    nbr = [frozenset(row) for row in g.nbrs]
    worst = 0
    adjacent_clean = True
    for u in range(g.vertex_count):
        for v in nbr[u]:
            if v > u and nbr[u] & nbr[v]:
                adjacent_clean = False
    rows.append(LemmaRow(
        "adjacent-pairs-share-no-neighbor", adjacent_clean, ""))
    for u, v in itertools.combinations(range(g.vertex_count), 2):
        k = len(nbr[u] & nbr[v])
        if k > worst:
            worst = k
    rows.append(LemmaRow(
        "pair-common-neighbors-at-most-3", worst <= 3, f"max {worst}"))

    r, witness = max_triple_common_neighbors(g)
    rows.append(LemmaRow(
        "triple-common-neighbors-max-3",
        r == 3 and witness is not None,
        f"r={r} witness={witness}"))

    ok_out = True
    for v in range(g.vertex_count):
        trio = outside_neighbors(g, v)
        copies = {g.copy_id[w] for w in trio}
        if len(set(trio)) != 3 or len(copies) != 3 or g.copy_id[v] in copies:
            ok_out = False
            break
    rows.append(LemmaRow(
        "outside-neighbors-three-distinct-copies", ok_out, ""))

    kappa_bss = vertex_connectivity(full_view(bss))
    rows.append(LemmaRow(
        f"connectivity-bss-n{n}",
        kappa_bss == 2 * n - 3,
        f"kappa={kappa_bss} expected {2 * n - 3}"))

    copy_view = copy_union(g, {1})
    kappa_copy = vertex_connectivity(copy_view)
    rows.append(LemmaRow(
        "copy-connectivity",
        kappa_copy == 2 * (n - 1) - 3,
        f"kappa={kappa_copy} expected {2 * (n - 1) - 3}"))

    if n <= 5:
        verts = sorted(copy_view.vertices())
        pair_ok = all(
            local_connectivity(copy_view, u, v) >= 2 * (n - 1) - 3
            for u, v in itertools.combinations(verts, 2))
        rows.append(LemmaRow(
            "copy-all-pairs-connectivity", pair_ok,
            f"exhaustive over {len(verts) * (len(verts) - 1) // 2} pairs"))

    kappa_wheel = vertex_connectivity(full_view(g))
    rows.append(LemmaRow(
        f"connectivity-wheel-n{n}",
        kappa_wheel == 2 * n - 2,
        f"kappa={kappa_wheel} expected {2 * n - 2}"))

    worst_del = min(
        vertex_connectivity(delete_copies(g, {c})) for c in range(1, n + 1))
    rows.append(LemmaRow(
        "connectivity-minus-one-copy",
        worst_del >= 2 * n - 4,
        f"worst kappa={worst_del} over all {n} deletions, needs >= {2 * n - 4}"))

    if n <= 4:
        unions = [
            set(sub)
            for size in range(2, n + 1)
            for sub in itertools.combinations(range(1, n + 1), size)
        ]
    else:
        unions = [set(sub) for sub in itertools.combinations(range(1, n + 1), 2)]
    worst_union = min(vertex_connectivity(copy_union(g, u)) for u in unions)
    rows.append(LemmaRow(
        "copy-union-connectivity",
        worst_union >= 2 * n - 5,
        f"worst kappa={worst_union} over {len(unions)} unions, needs >= {2 * n - 5}"))

    return rows
