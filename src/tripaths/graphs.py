"""Cayley graphs on S_n for the star/adjacent generator families.

Vertices are Lehmer ranks; adjacency lists carry (neighbor_rank,
generator_index) pairs sorted by neighbor rank.  The copy of a vertex
sigma is sigma(n); deleting the generator that moves position n from
the wheel family splits the graph into n copies, each isomorphic to
the bubble-sort star graph one degree down.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

from .errors import DuplicateVertices, RankOutOfRange, SameCopy, WrongFamily
from .perms import MAX_DEGREE, Family, generator_set, permutation_text, unrank

_MAX_LABELS = factorial(MAX_DEGREE)  # vertices of the largest graph built


class CayleyGraph:
    """Immutable by convention; build once, share everywhere."""

    def __init__(self, n: int, family: Family):
        gens = generator_set(family, n)
        self.n = n
        self.family = family
        self.gens = gens.members
        self.vertex_count = factorial(n)
        self.degree = len(self.gens)
        # permutations() yields one-line forms in lexicographic order, so
        # the position of a form is its Lehmer rank
        perms = list(itertools.permutations(range(1, n + 1)))
        index = {p: v for v, p in enumerate(perms)}
        swaps = [(gi, t.i - 1, t.j - 1) for gi, t in enumerate(self.gens)]
        adj = []
        for p in perms:
            row = []
            for gi, i, j in swaps:
                q = list(p)
                q[i], q[j] = q[j], q[i]
                row.append((index[tuple(q)], gi))
            row.sort()
            adj.append(tuple(row))
        self.adj = tuple(adj)
        self.copy_id = tuple(p[n - 1] for p in perms)
        members: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
        for v, c in enumerate(self.copy_id):
            members[c].append(v)
        self.copy_members = {c: tuple(vs) for c, vs in members.items()}
        # generator indices of (1 n), (n-1 n), (2 n): the outside neighbours
        gen_of = {(t.i, t.j): gi for gi, t in enumerate(self.gens)}
        self.outside_gens = tuple(gen_of.get(ij) for ij in ((1, n), (n - 1, n), (2, n)))
        # flow networks by generator mask, built by the flow layer on first use
        self.split_networks: dict = {}

    def check_rank(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise RankOutOfRange(f"vertex rank {v} outside [0, {self.vertex_count})")

    def perm(self, v: int):
        self.check_rank(v)
        return unrank(v, self.n)

    def vertex_text(self, v: int) -> str:
        return permutation_text(self.perm(v))


def build(n: int, family: Family) -> CayleyGraph:
    return CayleyGraph(n, family)


@dataclass(frozen=True)
class View:
    """Restriction of a graph to a vertex subset and/or generator subset.

    The graph is a CayleyGraph or an ExplicitGraph.  None means
    unrestricted.  Views compose; flows and solvers only ever see the
    graph through a View.
    """

    graph: CayleyGraph | ExplicitGraph
    allowed: frozenset[int] | None = None
    allowed_gens: frozenset[int] | None = None

    def contains(self, v: int) -> bool:
        # a float equal to a rank would pass the set test and then fail
        # as a row index, so only ints count as vertices
        if not isinstance(v, int):
            return False
        if self.allowed is None:
            return 0 <= v < self.graph.vertex_count
        return v in self.allowed

    def vertices(self) -> list[int]:
        if self.allowed is None:
            return list(range(self.graph.vertex_count))
        return sorted(self.allowed)

    @property
    def vertex_count(self) -> int:
        if self.allowed is None:
            return self.graph.vertex_count
        return len(self.allowed)

    def neighbors(self, v: int) -> list[tuple[int, int]]:
        if not self.contains(v):
            raise RankOutOfRange(f"vertex {v!r} is not in the view")
        allowed, gens = self.allowed, self.allowed_gens
        if allowed is None and gens is None:
            return list(self.graph.adj[v])
        return [(w, gi) for w, gi in self.graph.adj[v]
                if (gens is None or gi in gens) and (allowed is None or w in allowed)]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def adjacent(self, u: int, v: int) -> bool:
        if not self.contains(u):
            raise RankOutOfRange(f"vertex {u!r} is not in the view")
        # a row names each neighbour once, so the first match decides
        for w, gi in self.graph.adj[u]:
            if w == v:
                return (isinstance(v, int)
                        and (self.allowed is None or v in self.allowed)
                        and (self.allowed_gens is None or gi in self.allowed_gens))
        return False

    def without(self, removed) -> "View":
        removed = frozenset(removed)
        base = frozenset(self.vertices()) if self.allowed is None else self.allowed
        return View(self.graph, base - removed, self.allowed_gens)

    def restricted_to(self, kept) -> "View":
        kept = frozenset(kept)
        if self.allowed is not None:
            kept = kept & self.allowed
        return View(self.graph, kept, self.allowed_gens)


def full_view(g: CayleyGraph) -> View:
    return View(g)


class ExplicitGraph:
    """An ad-hoc graph with the attributes a View reads: ``adj`` rows
    indexed by label (empty for unused labels), ``vertex_count`` one past
    the largest label, and the flow-network cache."""

    def __init__(self, nbrs: dict[int, set[int]]):
        self.vertex_count = max(nbrs, default=-1) + 1
        self.adj = tuple(tuple((w, -1) for w in sorted(nbrs.get(v, ())))
                         for v in range(self.vertex_count))
        self.split_networks: dict = {}


def AdjacencyView(adjacency: dict) -> View:
    """View of an explicit adjacency mapping, so the solvers and checkers
    run on small ad-hoc graphs; neighbor entries carry -1 in place of a
    generator index.

    Labels index the graph's rows, so each must be an int in
    [0, 8!), the size of the largest graph the package builds.
    """
    nbrs: dict[int, set[int]] = {v: set() for v in adjacency}
    for v, ws in adjacency.items():
        for w in ws:
            if w != v:
                nbrs.setdefault(v, set()).add(w)
                nbrs.setdefault(w, set()).add(v)
    for v in nbrs:
        if type(v) is not int or not 0 <= v < _MAX_LABELS:
            raise ValueError(f"adjacency label {v!r} is not an int in [0, {_MAX_LABELS})")
    return View(ExplicitGraph(nbrs), frozenset(nbrs))


def spanning_intra_view(g: CayleyGraph) -> View:
    """All vertices, intra-copy generators only (wheel: drops (2 n) too).

    For even-degree work on the wheel family this is the spanning
    subgraph generated by the star/adjacent set alone.
    """
    gens = frozenset(
        gi for gi, t in enumerate(g.gens) if not (t.i == 2 and t.j == g.n)
    )
    return View(g, None, gens)


def copy_of(g: CayleyGraph, v: int) -> int:
    g.check_rank(v)
    return g.copy_id[v]


def outside_neighbors(g: CayleyGraph, v: int) -> tuple[int, int, int]:
    """(v+, v-, v*) = images under (1 n), (n-1 n), (2 n); wheel only.

    The three land in the copies sigma(1), sigma(n-1), sigma(2), which
    are pairwise distinct and differ from sigma(n).
    """
    if g.family is not Family.WHEEL:
        raise WrongFamily("outside-neighbor triple is defined for the wheel family")
    g.check_rank(v)
    plus, minus, star = g.outside_gens
    for w, gi in g.adj[v]:
        if gi == plus:
            vp = w
        elif gi == minus:
            vm = w
        elif gi == star:
            vs = w
    return (vp, vm, vs)


def _check_copy_ids(g: CayleyGraph, copies) -> frozenset[int]:
    ids = frozenset(copies)
    if not ids:
        raise ValueError("empty copy set")
    for c in ids:
        if not 1 <= c <= g.n:
            raise RankOutOfRange(f"copy id {c} outside [1, {g.n}]")
    return ids


def copy_union(g: CayleyGraph, copies) -> View:
    ids = _check_copy_ids(g, copies)
    verts = frozenset(v for c in ids for v in g.copy_members[c])
    return View(g, verts, None)


def delete_copies(g: CayleyGraph, copies) -> View:
    ids = _check_copy_ids(g, copies)
    verts = frozenset(
        v for c in range(1, g.n + 1) if c not in ids for v in g.copy_members[c]
    )
    if not verts:
        raise ValueError("deleting every copy leaves nothing")
    return View(g, verts, None)


def cross_edges(g: CayleyGraph, i: int, j: int) -> list[tuple[int, int]]:
    """Edges between copy i and copy j, as (u in copy i, v in copy j), sorted."""
    if g.family is not Family.WHEEL:
        raise WrongFamily("cross-edge enumeration is defined for the wheel family")
    _check_copy_ids(g, (i, j))
    if i == j:
        raise SameCopy(f"cross edges need two distinct copies, got {i} twice")
    out = []
    for u in g.copy_members[i]:
        for w, _gi in g.adj[u]:
            if g.copy_id[w] == j:
                out.append((u, w))
    out.sort()
    return out


def common_neighbors(g: CayleyGraph, vertices) -> list[int]:
    vs = list(vertices)
    if len(vs) not in (2, 3):
        raise ValueError(f"common neighbors take 2 or 3 vertices, got {len(vs)}")
    seen = set()
    for v in vs:
        g.check_rank(v)
        if v in seen:
            raise DuplicateVertices(f"vertex {v} appears twice")
        seen.add(v)
    common = None
    for v in vs:
        nbrs = {w for w, _ in g.adj[v]}
        common = nbrs if common is None else (common & nbrs)
    return sorted(common)


def to_dot(g: CayleyGraph) -> str:
    lines = ["graph cayley {"]
    lines.append(f'  // n={g.n} family={g.family.value}')
    for v in range(g.vertex_count):
        lines.append(f'  {v} [label="{g.vertex_text(v)}"];')
    for v in range(g.vertex_count):
        for w, gi in g.adj[v]:
            if v < w:
                lines.append(f'  {v} -- {w} [gen="{g.gens[gi].text()}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_edgelist(g: CayleyGraph) -> str:
    lines = [f"{g.n} {g.family.value}"]
    for v in range(g.vertex_count):
        for w, gi in g.adj[v]:
            if v < w:
                lines.append(f"{v} {w} {g.gens[gi].text()}")
    return "\n".join(lines) + "\n"
