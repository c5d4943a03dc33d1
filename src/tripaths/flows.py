"""Disjoint-path machinery: unit-capacity flows on one shared
vertex-split network per graph.

Every request (shortest paths, internally disjoint paths, fans,
set-to-set path systems, cuts, connectivity) reduces to a max flow in
which vertex v is split into ``vin(v) = 2v`` and ``vout(v) = 2v + 1``,
joined by a capacity-1 split arc, and each edge vw becomes the arcs
``vout(v) -> vin(w)`` and ``vout(w) -> vin(v)``.  Vertices are the
graph's own integers: Lehmer ranks, or the vertices of an explicit graph.

The static network is built on the first flow query of a graph and
generator mask and kept on the graph (``split_networks``).  Arcs are
paired ``e`` / ``e ^ 1`` in flat ``array``s.  A query
(``_FlowQuery``) costs only what it touches:

* the view's vertex set becomes a mask in the BFS ``parent`` template,
  so nodes outside the view are never entered;
* blocked entries and exits, unsplit and uncapped vertices and a
  dropped direct edge are capacity edits;
* arcs to a super source or sink are appended for the query;
* an undo log restores every capacity and row the query touched when
  it ends, also when it raises.

Augmentation is Edmonds-Karp: BFS shortest paths with every row scanned
in a fixed order, so results are deterministic.  Every arc joins a
``vin`` node to a ``vout`` node, the super source or the super sink, so
the network is bipartite and scanning one side finds only nodes of the
other.  So the BFS expands each ``vin`` node the moment it finds it and
queues only the other side: both sides are still found in plain FIFO
order, each node by the same arc, and every augmenting path is the one a
plain BFS finds.  A row lists the reverse arc of a static pair only
while the pair carries flow, since only then has it capacity: an
augmentation inserts it in order when its capacity leaves 0 and removes
it when the capacity returns to 0.  So ``vin(v)`` scans its split arc,
the reverse arcs of flow-carrying edges in ascending rank and its
terminal arcs; ``vout(v)`` its split reverse arc while v carries flow,
its forward arcs in adjacency order and its terminal arcs.  An order
seed reshuffles the forward arcs for randomized restarts, with the swaps
``random.Random(seed).shuffle`` would make, drawn inline.
"""

from __future__ import annotations

import random
from array import array
from bisect import insort
from dataclasses import dataclass

from .errors import InsufficientConnectivity, RankOutOfRange

_INF = 1 << 30
_OFF_VIEW = -3  # parent-template mark of a node the query may not enter


@dataclass(frozen=True)
class Path:
    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def reverse(self) -> "Path":
        return Path(tuple(reversed(self.vertices)))

    def edges(self) -> list[tuple[int, int]]:
        vs = self.vertices
        return [
            (vs[i], vs[i + 1]) if vs[i] < vs[i + 1] else (vs[i + 1], vs[i])
            for i in range(len(vs) - 1)
        ]

    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]


@dataclass(frozen=True)
class PathFamily:
    paths: tuple[Path, ...]


@dataclass
class StepCounter:
    used: int = 0

    def add(self, k: int = 1) -> None:
        self.used += k


@dataclass(frozen=True)
class CutResult:
    vertices: tuple[int, ...]
    adjacent: bool


class _SplitNetwork:
    """Static split network of one graph under one generator mask.

    ``nbrs[v]`` lists the neighbours of vertex v in ascending order.
    Arc 2v is the split arc of vertex v, the edge arcs follow vertex by
    vertex in adjacency order, and every arc starts at its unit
    capacity (0 for the reverse arc of a pair).  The super source and
    sink are the two nodes after the vertex nodes.

    The row of ``vout(v)`` holds the edge arcs of vertex v and the row of
    ``vin(v)`` only its split arc: every reverse arc, the split reverse
    arc included, starts at capacity 0, and ``_FlowQuery.max_flow`` lists
    one in the row of its tail only while its pair carries flow.
    """

    def __init__(self, nbrs):
        nv = len(nbrs)
        self.vertex_count = nv
        self.source, self.sink = 2 * nv, 2 * nv + 1
        to = array("i", [0]) * (2 * nv)
        for i in range(nv):
            to[2 * i] = 2 * i + 1
            to[2 * i + 1] = 2 * i
        rows = []
        for i, ws in enumerate(nbrs):
            first = len(to)
            rows.append(array("i", [2 * i]))
            rows.append(array("i", range(first, first + 2 * len(ws), 2)))
            for w in ws:
                to.append(2 * w)
                to.append(2 * i + 1)
        self.to = to
        self.cap = array("i", [1, 0]) * (len(to) // 2)
        self.arc_count = len(to)
        rows += [array("i"), array("i")]
        self.rows = rows
        self.open_template = [-1] * len(rows)
        self.busy = False


def _network(view) -> _SplitNetwork:
    """The static network a view's queries run on, built on first use and
    kept on the graph."""
    cache, gens = view.graph.split_networks, view.allowed_gens
    net = cache.get(gens)
    if net is None:
        net = cache[gens] = _SplitNetwork([[w for w, gi in row if gens is None or gi in gens]
                                           for row in view.graph.adj])
    return net


class _FlowQuery:
    """One flow request on the shared network of a view.

    Creating it applies the query's capacity edits and view mask; use it
    as a context manager, whose exit undoes every edit, augmentation and
    terminal arc.  ``removed`` vertices are masked out as if the view
    lacked them.
    """

    def __init__(self, view, order_seed=None, entry_blocked=(), exit_blocked=(),
                 no_split=(), uncapped=(), removed=()):
        self.net = net = _network(view)
        if net.busy:
            raise RuntimeError("flow queries on one network cannot nest")
        self.source, self.sink = net.source, net.sink
        # arc -> capacity before the query; a reverse arc starts every query
        # at 0 and edits touch even arcs only, so even arc k carries flow
        # cap[k + 1] of its start capacity cap[k] + cap[k + 1]
        self.saved: dict[int, int] = {}
        self.saved_rows: dict[int, array] = {}
        net.busy = True
        try:
            self.template = self._template(view.allowed, removed)
            self._edit(entry_blocked, exit_blocked, no_split, uncapped, order_seed)
        except BaseException:
            self._restore()
            raise

    def __enter__(self) -> "_FlowQuery":
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def vin(self, v: int) -> int:
        return 2 * v

    def vout(self, v: int) -> int:
        return 2 * v + 1

    def _is_vin(self, node: int) -> bool:
        return node < self.source and not node & 1

    def _template(self, allowed, removed) -> list[int]:
        """BFS ``parent`` start: -1 for nodes the query may enter."""
        net = self.net
        if allowed is None:
            tpl = net.open_template[:]
        else:
            tpl = [_OFF_VIEW] * len(net.rows)
            tpl[net.source] = tpl[net.sink] = -1
            for v in allowed:
                tpl[2 * v] = tpl[2 * v + 1] = -1
        for v in removed:
            tpl[2 * v] = tpl[2 * v + 1] = _OFF_VIEW
        return tpl

    def _edit(self, entry_blocked, exit_blocked, no_split, uncapped, order_seed) -> None:
        rows, to = self.net.rows, self.net.to
        for v in uncapped:
            if v not in no_split:
                self._set_cap(2 * v, _INF)
        for v in no_split:
            self._set_cap(2 * v, 0)
        for v in entry_blocked:
            # the edge arcs into vin(v) start in its neighbours' vout rows
            head = 2 * v
            for e in rows[head + 1]:
                for f in rows[to[e] + 1]:
                    if to[f] == head:
                        self._set_cap(f, 0)
        stuck = set(exit_blocked) | set(no_split)
        for v in stuck:
            for e in rows[2 * v + 1]:
                self._set_cap(e, 0)
        if order_seed is not None:
            self._shuffle(random.Random(order_seed).getrandbits, stuck)

    def _shuffle(self, getrandbits, stuck) -> None:
        """Shuffle the in-view forward arcs of every in-view vertex but the
        stuck ones, in ascending order, with ``Random.shuffle``'s draws."""
        rows, to, tpl = self.net.rows, self.net.to, self.template
        for v in range(self.net.vertex_count):
            if tpl[2 * v] != -1 or v in stuck:
                continue
            arcs = [e for e in rows[2 * v + 1] if tpl[to[e]] == -1]
            for i in range(len(arcs) - 1, 0, -1):
                k = (i + 1).bit_length()
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                arcs[i], arcs[j] = arcs[j], arcs[i]
            self._own_row(2 * v + 1)[:] = array("i", arcs)

    def _set_cap(self, e: int, c: int) -> None:
        self.saved.setdefault(e, self.net.cap[e])
        self.net.cap[e] = c

    def _own_row(self, node: int) -> array:
        """The row of `node` as a copy this query may change in place; the
        static row goes to the undo log on first use."""
        rows = self.net.rows
        row = rows[node]
        if node not in self.saved_rows:
            self.saved_rows[node] = row
            row = rows[node] = array("i", row)
        return row

    def _restore(self) -> None:
        net = self.net
        cap = net.cap
        for e, c in self.saved.items():
            cap[e] = c
        for node, row in self.saved_rows.items():
            net.rows[node] = row
        del net.to[net.arc_count:]
        del net.cap[net.arc_count:]
        self.saved.clear()
        self.saved_rows.clear()
        net.busy = False

    def add_arc(self, tail: int, head: int, c: int) -> None:
        """Terminal arc for this query only, scanned last from its tail; one
        end must be a ``vin`` node and the other not."""
        if self._is_vin(tail) == self._is_vin(head):
            raise ValueError(f"arc {tail} -> {head} must join a vin node to the other side")
        net = self.net
        e = len(net.to)
        net.to.extend((head, tail))
        net.cap.extend((c, 0))
        self._own_row(tail).append(e)
        self._own_row(head).append(e + 1)

    def drop_edge(self, u: int, v: int) -> None:
        """Remove the arc vout(u) -> vin(v) of an edge for this query."""
        to, head = self.net.to, self.vin(v)
        for e in self.net.rows[self.vout(u)]:
            if to[e] == head:
                self._set_cap(e, 0)

    def max_flow(self, s: int, t: int, limit: int, counter: StepCounter | None = None) -> int:
        if self._is_vin(s):
            raise ValueError(f"flow from vin node {s}: the BFS starts on the other side")
        rows, to, cap = self.net.rows, self.net.to, self.net.cap
        template, saved = self.template, self.saved
        last_static = self.net.arc_count
        value = 0
        while value < limit:
            if counter is not None:
                counter.add()
            parent = template[:]
            _bfs(rows, to, cap, parent, s, t)
            if parent[t] < 0:
                break
            bottleneck = limit - value
            path, node = [], t
            while node != s:
                e = parent[node]
                path.append(e)
                if cap[e] < bottleneck:
                    bottleneck = cap[e]
                node = to[e ^ 1]
            for e in path:
                k = e & -2
                if k + 1 not in saved:
                    saved[k + 1] = cap[k + 1]
                    saved.setdefault(k, cap[k])
                cap[e] -= bottleneck
                cap[e ^ 1] += bottleneck
                if k < last_static:
                    # reverse arc k + 1 of a static pair is in the row of the
                    # head of k (a split reverse arc sorts first) while open
                    if e == k and cap[k + 1] == bottleneck:
                        insort(self._own_row(to[k]), k + 1)
                    elif e != k and not cap[k + 1]:
                        self._own_row(to[k]).remove(k + 1)
            value += bottleneck
        return value

    def _vertex(self, node: int) -> int | None:
        return None if node >= self.net.source else node >> 1

    def extract_paths(self, source: int, sink: int) -> list[Path]:
        """Decompose the flow into walks from source to sink.

        Unit interior capacities make every walk a simple path; leftover
        circulation (if any) never touches the source and is ignored.
        Only arcs the augmentations touched can carry flow.
        """
        rows, to, cap = self.net.rows, self.net.to, self.net.cap
        remaining = {k: cap[k + 1] for k in self.saved if not k & 1 and cap[k + 1]}
        tails: dict[int, list[int]] = {}
        for k in remaining:
            tails.setdefault(to[k ^ 1], []).append(k)
        used_out = {node: [e for e in rows[node] if e in remaining] if len(arcs) > 1 else arcs
                    for node, arcs in tails.items()}
        paths = []
        while True:
            start = next((e for e in used_out.get(source, ()) if remaining[e] > 0), None)
            if start is None:
                break
            node_path = [source]
            e = start
            while True:
                remaining[e] -= 1
                node = to[e]
                node_path.append(node)
                if node == sink:
                    break
                e = next(a for a in used_out.get(node, ()) if remaining[a] > 0)
            vp: list[int] = []
            for node in node_path:
                v = self._vertex(node)
                if v is not None and (not vp or vp[-1] != v):
                    vp.append(v)
            paths.append(Path(tuple(vp)))
        return paths

    def witness_cut(self, source: int, terminal_vertices) -> tuple[int, ...]:
        """Vertex separator read off the residual cut.

        Crossing split arcs name their vertex; crossing edge arcs name
        whichever endpoint is not an uncapped terminal.
        """
        rows, to, cap = self.net.rows, self.net.to, self.net.cap
        parent = self.template[:]
        _bfs(rows, to, cap, parent, source, -1)
        cut: set[int] = set()
        for node, p in enumerate(parent):
            if p < 0 and node != source:
                continue
            for e in rows[node]:
                w = to[e]
                if e & 1 or parent[w] != -1 or cap[e] + cap[e + 1] == 0:
                    continue
                u, x = self._vertex(node), self._vertex(w)
                if u is not None and x is not None and u == x:
                    cut.add(u)  # split arc
                elif x is not None and x not in terminal_vertices:
                    cut.add(x)
                elif u is not None and u not in terminal_vertices:
                    cut.add(u)
                elif x is not None:
                    cut.add(x)
        return tuple(sorted(cut))


def _bfs(rows, to, cap, parent, s: int, t: int) -> None:
    """BFS from the non-``vin`` node s until it finds t (-1: to exhaustion),
    setting ``parent`` (a copy of the query template) to the arc that found
    each node; a one-arc ``vin`` row is its split arc h -> h + 1."""
    parent[s] = -2
    queue = [s]
    push = queue.append
    for u in queue:
        for e in rows[u]:
            h = to[e]
            if parent[h] != -1 or cap[e] <= 0:
                continue
            parent[h] = e
            if h == t:
                return
            row = rows[h]
            if len(row) == 1:
                if cap[h] > 0 and parent[h + 1] == -1:
                    parent[h + 1] = h
                    if h + 1 == t:
                        return
                    push(h + 1)
                continue
            for f in row:
                w = to[f]
                if parent[w] == -1 and cap[f] > 0:
                    parent[w] = f
                    if w == t:
                        return
                    push(w)


def _require(view, vertices) -> None:
    """Every vertex must lie in the view; shared arrays are indexed by it."""
    for v in vertices:
        if not view.contains(v):
            raise RankOutOfRange(f"vertex {v!r} is not in the view")


def _distinct(items, what: str) -> list:
    items = list(items)
    if len(set(items)) != len(items):
        raise ValueError(f"duplicate {what}: {items}")
    return items


def shortest_path(view, u: int, v: int, avoid=frozenset()) -> Path | None:
    """Shortest path from u to v with interior vertices outside `avoid`:
    the first augmenting path of a u-v flow."""
    avoid = frozenset(avoid)
    if u in avoid or v in avoid:
        raise ValueError(f"path ends {u}, {v} cannot be avoided")
    _require(view, (u, v))
    if u == v:
        return Path((u,))
    with _FlowQuery(view, entry_blocked=(u,), exit_blocked=(v,), uncapped=(u, v),
                    removed=[w for w in avoid if view.contains(w)]) as q:
        q.max_flow(q.vout(u), q.vin(v), 1)
        paths = q.extract_paths(q.vout(u), q.vin(v))
    return paths[0] if paths else None


def _check_pair(view, u: int, v: int) -> None:
    if u == v:
        raise ValueError(f"flow between {u} and itself")
    _require(view, (u, v))


def max_internally_disjoint_paths(view, u: int, v: int, limit: int | None = None,
                                  order_seed: int | None = None,
                                  counter: StepCounter | None = None) -> PathFamily:
    """All (or `limit`) internally disjoint u-v paths; adjacency contributes
    the direct edge as a one-edge path."""
    _check_pair(view, u, v)
    cap = min(view.degree(u), view.degree(v))
    goal = cap if limit is None else min(limit, cap)
    with _FlowQuery(view, order_seed=order_seed, entry_blocked=(u,), exit_blocked=(v,),
                    uncapped=(u, v)) as q:
        q.max_flow(q.vout(u), q.vin(v), goal, counter)
        paths = q.extract_paths(q.vout(u), q.vin(v))
    return PathFamily(tuple(paths))


def k_fan(view, x: int, targets, k: int, order_seed: int | None = None) -> PathFamily:
    """k paths from x to k distinct members of `targets`, pairwise sharing
    only x and internally avoiding the whole target set."""
    targets = _distinct(targets, "fan targets")
    if x in targets:
        raise ValueError(f"fan root {x} cannot be a target")
    if k > len(targets):
        raise ValueError(f"fan of {k} paths needs at least {k} targets, got {len(targets)}")
    _require(view, [x] + targets)
    ys = sorted(targets)
    with _FlowQuery(view, order_seed=order_seed, entry_blocked=(x,), no_split=ys,
                    uncapped=(x,)) as q:
        for y in ys:
            q.add_arc(q.vin(y), q.sink, 1)
        value = q.max_flow(q.vout(x), q.sink, k)
        fam = PathFamily(tuple(q.extract_paths(q.vout(x), q.sink)))
        if value < k:
            raise InsufficientConnectivity(
                f"fan from {x} reached only {value} of {k} targets",
                achieved=fam, witness_cut=q.witness_cut(q.vout(x), {x}))
    return fam


def disjoint_set_paths(view, xs, ys, k: int, order_seed: int | None = None) -> PathFamily:
    """k pairwise fully disjoint paths from X to Y, internally avoiding
    X and Y; members of X∩Y count as zero-length paths."""
    xs, ys = _distinct(xs, "terminals"), _distinct(ys, "terminals")
    if k > min(len(xs), len(ys)):
        raise ValueError(f"{k} disjoint paths need {k} terminals on each side")
    _require(view, xs + ys)
    xset, yset = sorted(xs), sorted(ys)
    shared = sorted(set(xset) & set(yset))
    zero = [Path((w,)) for w in shared[:k]]
    need = k - len(zero)
    if need <= 0:
        return PathFamily(tuple(zero))
    xonly = [v for v in xset if v not in shared]
    yonly = [v for v in yset if v not in shared]
    with _FlowQuery(view, order_seed=order_seed, entry_blocked=xonly, exit_blocked=yonly,
                    no_split=yonly, removed=shared) as q:
        for x in xonly:
            q.add_arc(q.source, q.vin(x), 1)
        for y in yonly:
            q.add_arc(q.vin(y), q.sink, 1)
        value = q.max_flow(q.source, q.sink, need)
        fam = PathFamily(tuple(zero + q.extract_paths(q.source, q.sink)))
        if value < need:
            cut = q.witness_cut(q.source, set())
            raise InsufficientConnectivity(
                f"only {len(zero) + value} of {k} disjoint set paths exist",
                achieved=fam, witness_cut=tuple(sorted(set(cut) | set(shared))))
    return fam


def _pair_flow(view, u: int, v: int, drop_direct: bool,
               want_cut: bool) -> tuple[int, tuple[int, ...] | None]:
    """Flow value from u to v and, if asked, the residual vertex cut."""
    cap = min(view.degree(u), view.degree(v)) + 1
    with _FlowQuery(view, entry_blocked=(u,), exit_blocked=(v,), uncapped=(u, v)) as q:
        if drop_direct:
            q.drop_edge(u, v)
        value = q.max_flow(q.vout(u), q.vin(v), cap)
        return value, (q.witness_cut(q.vout(u), {u, v}) if want_cut else None)


def min_vertex_cut(view, u: int, v: int) -> CutResult:
    """Minimum u,v-separator; adjacent pairs are cut in the graph minus
    the direct edge and flagged."""
    _check_pair(view, u, v)
    adjacent = view.adjacent(u, v)
    _, cut = _pair_flow(view, u, v, adjacent, want_cut=True)
    return CutResult(cut, adjacent)


def local_connectivity(view, u: int, v: int) -> int:
    """Maximum number of internally disjoint u-v paths (direct edge counts)."""
    _check_pair(view, u, v)
    value, _ = _pair_flow(view, u, v, False, want_cut=False)
    return value


def vertex_connectivity(view) -> int:
    """Connectivity of the view: n-1 if complete, else the min over a
    standard candidate family of pair connectivities.  A disconnected
    view reads 0: some non-neighbour of the minimum-degree vertex lies
    in another component, or that vertex is isolated."""
    verts = view.vertices()
    nv = len(verts)
    if nv < 2:
        raise ValueError("connectivity needs at least two vertices")
    degs = {v: view.degree(v) for v in verts}
    if all(d == nv - 1 for d in degs.values()):
        return nv - 1
    v0 = min(verts, key=lambda v: (degs[v], v))
    nbrs = sorted(w for w, _ in view.neighbors(v0))
    nbr_set = set(nbrs)
    best = degs[v0]
    for w in verts:
        if w == v0 or w in nbr_set:
            continue
        best = min(best, local_connectivity(view, v0, w))
    for i in range(len(nbrs)):
        for j in range(i + 1, len(nbrs)):
            x, y = nbrs[i], nbrs[j]
            if not view.adjacent(x, y):
                best = min(best, local_connectivity(view, x, y))
    return best
