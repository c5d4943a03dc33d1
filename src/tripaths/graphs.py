"""Cayley graphs on S_n for the star/adjacent generator families.

Vertices are Lehmer ranks.  A graph keeps two rows per vertex:
``nbrs[v]``, the tuple of its neighbour ranks in ascending order, and
``nbr_gens[v]``, the generator index of each neighbour in the same order
(a ``bytes``, one index per neighbour).  The copy of a vertex sigma
is sigma(n); deleting the generator that moves position n from the wheel
family splits the graph into n copies, each isomorphic to the bubble-sort
star graph one degree down.  A ``View`` is a vertex subset of one graph;
a subgraph with fewer edges, such as the spanning intra view, is a graph
of its own.  A ``Path`` is a vertex sequence; the flow layer builds them
and the checkers read them.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from math import factorial

from .errors import DuplicateVertices, RankOutOfRange, SameCopy, WrongFamily
from .perms import MAX_DEGREE, Family, generator_set, permutation_text, unrank

_MAX_LABELS = factorial(MAX_DEGREE)  # vertices of the largest graph built


@dataclass(frozen=True)
class Path:
    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def reverse(self) -> "Path":
        return Path(tuple(reversed(self.vertices)))

    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]


@dataclass(frozen=True)
class PathFamily:
    paths: tuple[Path, ...]


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
        swaps = [(t.i - 1, t.j - 1) for t in self.gens]
        # generator indices of (1 n), (n-1 n), (2 n): the outside neighbours
        gen_of = {(t.i, t.j): gi for gi, t in enumerate(self.gens)}
        self.outside_gens = tuple(gen_of.get(ij) for ij in ((1, n), (n - 1, n), (2, n)))
        star = self.outside_gens[2]
        gen_range = range(self.degree)
        nbrs, nbr_gens, stars = [], [], []
        for p in perms:
            ws = []
            for i, j in swaps:
                q = list(p)
                q[i], q[j] = q[j], q[i]
                ws.append(index[tuple(q)])
            if star is not None:
                stars.append(ws[star])
            order = sorted(gen_range, key=ws.__getitem__)
            nbrs.append(tuple([ws[gi] for gi in order]))
            nbr_gens.append(bytes(order))
        self.nbrs = tuple(nbrs)
        self.nbr_gens = tuple(nbr_gens)
        # v* = the (2 n) image of v by rank; empty without that generator
        self.star_image = tuple(stars)
        self.copy_id = tuple(p[n - 1] for p in perms)
        members: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
        for v, c in enumerate(self.copy_id):
            members[c].append(v)
        self.copy_members = {c: tuple(vs) for c, vs in members.items()}
        # built on first use: the spanning intra graph, and the flow network
        self.intra_graph = None
        self.split_network = None

    def check_rank(self, v: int) -> None:
        # only exact ints are ranks: a bool or a float would index rows
        if type(v) is not int or not 0 <= v < self.vertex_count:
            raise RankOutOfRange(f"vertex rank {v!r} outside [0, {self.vertex_count})")

    def perm(self, v: int):
        self.check_rank(v)
        return unrank(v, self.n)

    def vertex_text(self, v: int) -> str:
        return permutation_text(self.perm(v))


def build(n: int, family: Family) -> CayleyGraph:
    return CayleyGraph(n, family)


@dataclass(frozen=True)
class View:
    """A vertex subset of one graph.

    The graph is a CayleyGraph or an ExplicitGraph.  None means every
    vertex.  Views compose; flows and solvers only ever see the graph
    through a View.
    """

    graph: CayleyGraph | ExplicitGraph
    allowed: frozenset[int] | None = None

    def contains(self, v: int) -> bool:
        # a float or a bool equal to a rank would pass the set test and
        # then index a row as that rank, so only exact ints are vertices
        if type(v) is not int:
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

    def neighbors(self, v: int) -> list[int]:
        """The neighbour ranks of v in the view, ascending."""
        if not self.contains(v):
            raise RankOutOfRange(f"vertex {v!r} is not in the view")
        allowed, row = self.allowed, self.graph.nbrs[v]
        return list(row) if allowed is None else [w for w in row if w in allowed]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def adjacent(self, u: int, v: int) -> bool:
        if not self.contains(u):
            raise RankOutOfRange(f"vertex {u!r} is not in the view")
        # only exact ints are vertices, and only they compare with a row's ranks
        if type(v) is not int or (self.allowed is not None and v not in self.allowed):
            return False
        row = self.graph.nbrs[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def is_walk(self, vs) -> bool:
        """True when every member of the vertex sequence is a vertex of
        the view and an edge of the view joins each consecutive pair."""
        members = range(self.graph.vertex_count) if self.allowed is None else self.allowed
        rows = self.graph.nbrs
        x = None
        for y in vs:
            # only exact ints are vertices: a float or a bool equal to a
            # rank would pass both membership tests
            if type(y) is not int or y not in members:
                return False
            if x is not None and y not in rows[x]:
                return False
            x = y
        return True

    def path_gaps(self, vs) -> tuple[list, list[tuple[int, int]]]:
        """For a vertex sequence: its members outside the view, and its
        consecutive pairs, neither end equal to one of those, that no
        edge of the view joins."""
        outside = [v for v in vs if not self.contains(v)]
        rows = self.graph.nbrs
        gaps = []
        for x, y in zip(vs, vs[1:]):
            if outside and (x in outside or y in outside):
                continue
            row = rows[x]
            i = bisect_left(row, y)
            if i == len(row) or row[i] != y:
                gaps.append((x, y))
        return outside, gaps

    def without(self, removed) -> "View":
        removed = frozenset(removed)
        base = frozenset(self.vertices()) if self.allowed is None else self.allowed
        return View(self.graph, base - removed)

    def restricted_to(self, kept) -> "View":
        kept = frozenset(kept)
        if self.allowed is not None:
            kept = kept & self.allowed
        return View(self.graph, kept)


def full_view(g: CayleyGraph) -> View:
    return View(g)


class ExplicitGraph:
    """A graph given by its rows, with the attributes a View reads:
    ``nbrs`` rows indexed by label, ascending (empty for unused labels),
    ``vertex_count`` the number of rows, and the flow network kept by
    the flow layer."""

    def __init__(self, nbrs: tuple[tuple[int, ...], ...]):
        self.vertex_count = len(nbrs)
        self.nbrs = nbrs
        self.split_network = None


def AdjacencyView(adjacency: dict) -> View:
    """View of an explicit adjacency mapping, so the solvers and checkers
    run on small ad-hoc graphs.

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
    rows = tuple(tuple(sorted(nbrs.get(v, ()))) for v in range(max(nbrs, default=-1) + 1))
    return View(ExplicitGraph(rows), frozenset(nbrs))


def spanning_intra_view(g: CayleyGraph) -> View:
    """All vertices, every edge but those of (2 n).

    (1 n) and (n-1 n), which move position n, stay in, so on the wheel
    family this is the bubble-sort star graph BS_n on the same ranks:
    the spanning subgraph generated by the star/adjacent set alone.  It
    is a graph of its own, whose row v is ``g.nbrs[v]`` without v's (2 n)
    image, built on the first call and kept on g.  The bubble-sort star
    family has no (2 n), so there the view is the whole graph.
    """
    if not g.star_image:
        return View(g)
    if g.intra_graph is None:
        g.intra_graph = ExplicitGraph(tuple(
            tuple([w for w in ws if w != star]) for ws, star in zip(g.nbrs, g.star_image)))
    return View(g.intra_graph)


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
    ws, gens = g.nbrs[v], g.nbr_gens[v]
    plus, minus, star = g.outside_gens
    return (ws[gens.index(plus)], ws[gens.index(minus)], ws[gens.index(star)])


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
    verts = frozenset(itertools.chain.from_iterable(g.copy_members[c] for c in ids))
    return View(g, verts)


def delete_copies(g: CayleyGraph, copies) -> View:
    ids = _check_copy_ids(g, copies)
    verts = frozenset(itertools.chain.from_iterable(
        g.copy_members[c] for c in range(1, g.n + 1) if c not in ids))
    if not verts:
        raise ValueError("deleting every copy leaves nothing")
    return View(g, verts)


def cross_edges(g: CayleyGraph, i: int, j: int) -> list[tuple[int, int]]:
    """Edges between copy i and copy j, as (u in copy i, v in copy j), sorted."""
    if g.family is not Family.WHEEL:
        raise WrongFamily("cross-edge enumeration is defined for the wheel family")
    _check_copy_ids(g, (i, j))
    if i == j:
        raise SameCopy(f"cross edges need two distinct copies, got {i} twice")
    out = []
    for u in g.copy_members[i]:
        for w in g.nbrs[u]:
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
        nbrs = set(g.nbrs[v])
        common = nbrs if common is None else (common & nbrs)
    return sorted(common)


def to_dot(g: CayleyGraph) -> str:
    lines = ["graph cayley {"]
    lines.append(f'  // n={g.n} family={g.family.value}')
    for v in range(g.vertex_count):
        lines.append(f'  {v} [label="{g.vertex_text(v)}"];')
    for v in range(g.vertex_count):
        for w, gi in zip(g.nbrs[v], g.nbr_gens[v]):
            if v < w:
                lines.append(f'  {v} -- {w} [gen="{g.gens[gi].text()}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_edgelist(g: CayleyGraph) -> str:
    lines = [f"{g.n} {g.family.value}"]
    for v in range(g.vertex_count):
        for w, gi in zip(g.nbrs[v], g.nbr_gens[v]):
            if v < w:
                lines.append(f"{v} {w} {g.gens[gi].text()}")
    return "\n".join(lines) + "\n"
