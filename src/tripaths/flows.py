"""Disjoint-path machinery: unit-capacity flows on one shared
vertex-split network per graph.

Every request (shortest paths, internally disjoint paths, fans,
set-to-set path systems, cuts, connectivity) reduces to a max flow in
which vertex v is split into ``vin(v) = 2v`` and ``vout(v) = 2v + 1``,
joined by a capacity-1 split arc, and each edge vw becomes the arcs
``vout(v) -> vin(w)`` and ``vout(w) -> vin(v)``.  Vertices are the
graph's own integers: Lehmer ranks, or the vertices of an explicit graph.

The static network is built on the first flow query of a graph and
kept on it (``split_network``), one per graph.  Arcs are paired
``e`` / ``e ^ 1`` in flat ``array``s.  A query (``_FlowQuery``) costs
only what it touches:

* the view's vertex set becomes a mask in the BFS ``parent`` template,
  so nodes outside the view are never entered;
* three capacity edits: blocked entries (the edge arcs into a vertex
  close), unsplit vertices (the split arc alone closes: nothing then
  reaches ``vout(v)``, so flow that reaches v ends there) and a dropped
  direct edge.  The start of a flow takes none: it starts at
  ``vout(u)``, which every search labels first and no backward step
  expands, and ``vin(u)`` takes no flow and leaves only into
  ``vout(u)``, so no augmenting path, label or cut reads an arc into it;
* arcs to a super source or sink are appended for the query;
* when it ends, also when it raises, the query puts every augmented
  static pair back by its sum (the reverse arc's flow returns to the
  forward arc), then undoes its edits and rows from an undo log.

The paths of a flow are read by walking it: from each arc out of the
source that carries flow, in row order, the one arc with flow out of
each next node, up to the sink.  Every node but the source carries at
most one unit, and ``vin(y)`` of a fan target that takes more leaves
only by its terminal arc, so the walk needs no bookkeeping.

Augmentation is Edmonds-Karp: BFS shortest paths with every row scanned
in a fixed order, so results are deterministic.  Every augmenting path
carries one unit: each path of a public call crosses an edge arc, whose
capacity is at most 1, and a unit push is a valid Ford-Fulkerson step at
any integer capacity.  Every arc joins a ``vin`` node to a ``vout``
node, the super source or the super sink, so the network is bipartite
and scanning one side finds only nodes of the other.  So the BFS expands
each ``vin`` node the moment it finds it and queues only the other side:
both sides are still found in plain FIFO order, each node by the same
arc, and every augmenting path is the one a plain BFS finds.  A row
lists the reverse arc of a static pair only while the pair carries flow,
since only then has it capacity: an augmentation inserts it in order
when its capacity leaves 0 and removes it when the capacity returns to
0.  So ``vin(v)`` scans its split arc, the reverse arcs of flow-carrying
edges in ascending rank and its terminal arcs; ``vout(v)`` its split
reverse arc while v carries flow, its forward arcs in adjacency order
and its terminal arcs.

An order seed reshuffles the forward arcs for randomized restarts: the
in-view ``vout`` rows but those of unsplit vertices get, in ascending
order, the swaps ``shuffle`` of one ``random.Random(seed)`` makes in them.
Small views draw them inline, every row up front.  On the large views
that search from both ends (below), a search reads only a few percent
of the rows, so ``_SeededRows`` shuffles a row when it is first read.

It still reads the whole stream once, to find where each row's draws
start: ``getrandbits(k)`` for k <= 8 is the top k bits of one 32-bit
word, so below 256 arcs the top byte of each word decides a draw, and a
bytes regex matches the draws of a row.  A network with a row of 256
arcs or more shuffles every row up front on every view; no Cayley graph
has one (its degree is 2n - 2 at most).  What depends on the view alone
is a ``_RowPlan``, built once per vertex mask and kept on the network
for the ``_ROW_PLANS`` masks used last: the in-view rows in ascending
order, cut into runs of at most ``_RUN_ROWS`` rows of one length.
``pi3_lower`` on the 600 triples of ``sample_triples(g, 600, 1)`` at
n = 7, taken a stratum at a time, makes 200 seeded queries on large
views, all on the 7 masks of CW_7 minus a copy; 193 reuse a plan.  A
query makes one match per run, with a pattern of one group per row that
draws (``_run_draws``, kept by length and rows, so no view compiles
patterns of its own): an unsplit row draws nothing, so it is a hole in
its run and is left static.  The query keeps where each run starts; the
first read of a row in a run matches the run again, once per query, and
the group starts are the offsets of the rows around the holes.  Keeping
every run's match instead would hold about 880 objects the garbage
collector tracks per query.

On views of at least ``_TWO_ENDED_VERTICES`` vertices ``max_flow`` finds
the same augmenting path from both ends (``_two_ended``).  The FIFO path
is the shortest s-t path whose sequence of row positions is
lexicographically least: the parent chain of every node is the least
shortest path to it, and FIFO order on a level is the order of those
sequences.  So the search alternates level steps on the side with the
smaller frontier.  Forward steps keep FIFO parents, as ``_bfs`` does;
backward steps keep only distances to t, reading the arcs into a node as
the partners of the arcs out of it (``_SplitNetwork.back_arcs`` keeps
the reverse arcs a ``vin`` row lists only while they carry flow).  Before
the first meet every meet closes a shortest path.  A forward step's
first meet is the path's node on that level, since it is found in FIFO
order; after a backward step the meet the FIFO search finds first is
chosen by comparing parent chains where they merge.  From the meet the
path takes, row by row, the first arc that steps one closer to t, which
is the least continuation.  A search labels into two lists that
``max_flow`` makes once per call, a copy of the query template for the
parents and the template itself for the distances, so a search copies
nothing the size of the network.  A search that finds no path, or
raises, puts back every entry it set; one that finds a path hands its
labels to a ``_Phase``.

A phase is the run of augmenting paths that have one length D.
Edmonds-Karp distances never decrease, and augmenting along a shortest
path opens only arcs that lead one forward level back.  So while D is
still the distance, every s-t path of D arcs steps from forward level j
to j + 1 and from distance D - j to D - j - 1, both measured on the
residual the search labelled, and takes no arc the phase opened; the
FIFO path is the one of them whose sequence of row positions is least
(the phase argument of Dinic 1970 and Even & Tarjan 1975).
``_Phase.walk`` finds it without a new search: a depth-first search from
s that scans each row in order, takes open arcs only and enters, at a
position j up to the last forward level F the search completed, only a
node that still has open arcs through levels j + 1, ... to a node of
level F at distance D - F, and at a later position only a node at
distance D - j, which the backward levels the search completed cover.
A node with no continuation is dead for the rest of the phase, since
augmenting only closes arcs between consecutive levels.  The nodes a
walk may enter up to level F are found on the first walk of a phase,
level by level down from level F, reading the arcs into a node as the
backward search does; a walk that entered every node of a forward level
instead spent most of its time at n = 7 in branches that die below F.
Only when a walk finds nothing does ``max_flow`` clear the labels and
search afresh, so a phase costs one extra walk and every augmenting path
is the one a plain BFS finds.  ``max_flow`` clears the labels also when
the flow ends or raises, and ``StepCounter`` counts one step per
augmenting path, however it was found, and one for a final failing
search.  On the first 300 triples of ``sample_triples(g, 1500, 1)`` at
n = 6, taken a stratum at a time, 1,497 searches and 2,154 walks find
the 3,651 augmenting paths that 3,651 searches found one by one.

Per call, with the flows of ``pi3_lower`` on ``sample_triples(g, N, 1)``
(N = 600, 60, 30 at n = 5, 6, 7; three worker processes, one per column,
take turns on each triple, and each triple's fastest of three rounds
counts; wall time, Python 3.11 on a shared 2-vCPU host), in ms per
``max_flow``: one-ended, two-ended with a search per path, and
two-ended with phases:

    view vertices   views                   one-ended  two-ended  phases
    11-24           one copy at n = 5       0.112      0.169      0.196
    47-48           two copies at n = 5     0.069      0.095      0.116
    96              n = 5 minus a copy      0.227      0.409      0.446
    678-720         n = 6 spanning          2.42       1.03       0.812
    679-720         a copy at n = 7         4.65       1.98       1.64
    2880            four copies at n = 7    3.81       1.12       1.20
    4320            n = 7 minus a copy      22.6       7.19       6.23

In these flows every phase on four copies at n = 7 carries one path, so
the walk that ends it is all extra there.  Small views keep the
one-ended search.  No sweep runs a flow on views of 97 to 677 vertices.
Random pair queries, set-up included, ran 1.25x faster two-ended (a
search per path) on CW_5 (120 vertices) and 1.55x on two copies of CW_6
(240); the threshold sits between the sweep views where the one-ended
search wins and those where the two-ended one does.
"""

from __future__ import annotations

import functools
import random
import re
from array import array
from bisect import bisect, insort
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate, chain, compress

from .errors import InsufficientConnectivity, RankOutOfRange
from .graphs import Path, PathFamily

_OFF_VIEW = -3  # parent-template mark of a node the query may not enter
# views of at least this many vertices find augmenting paths from both ends
_TWO_ENDED_VERTICES = 200
_DRAW_WORDS = 4096  # MT words a lazy seeded order draws at a time
_RUN_ROWS = 32  # rows of one length a seeded order matches at once
# row plans a network keeps, for the vertex masks used last: the seeded
# large-view queries of the n = 7 sweep run on the 7 masks of CW_7 minus
# a copy (one network serves every copy view), and the eighth slot lets
# one other mask pass without evicting one of them
_ROW_PLANS = 8


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
    """Static split network of one graph.

    ``nbrs[v]`` lists the neighbours of vertex v in ascending order, and
    w is a neighbour of v exactly when v is one of w.
    Arc 2v is the split arc of vertex v, the edge arcs follow vertex by
    vertex in adjacency order, and every arc starts at its unit
    capacity (0 for the reverse arc of a pair).  The super source and
    sink are the two nodes after the vertex nodes.

    The row of ``vout(v)`` holds the edge arcs of vertex v and the row of
    ``vin(v)`` only its split arc: every reverse arc, the split reverse
    arc included, starts at capacity 0, and ``_FlowQuery.max_flow`` lists
    one in the row of its tail only while its pair carries flow.
    ``back_arcs[back_first[v]:back_first[v + 1]]`` lists the reverse
    edge arcs out of ``vin(v)`` whether or not they carry flow; their
    partners are the edge arcs into ``vin(v)``.
    ``row_plans`` keeps the ``_RowPlan`` of the vertex masks that seeded
    queries used last, keyed by the masks' vertex marks, and
    ``byte_draws`` tells whether every row has fewer than 256 arcs, so
    that each of its draws is decided by the top byte of one word.
    """

    def __init__(self, nbrs):
        nv = len(nbrs)
        self.vertex_count = nv
        self.source, self.sink = 2 * nv, 2 * nv + 1
        to = array("i", [0]) * (2 * nv)
        for i in range(nv):
            to[2 * i] = 2 * i + 1
            to[2 * i + 1] = 2 * i
        # back_arcs groups the reverse arc of every edge arc by the vin
        # node it leaves, in flat arrays, which stay small; the graph is
        # undirected, so vin(w) has one such arc per neighbour of w
        starts = array("i", [0])
        starts.extend(accumulate(map(len, nbrs)))
        slot = starts[:]
        back = array("i", [0]) * starts[nv]
        rows = []
        for i, ws in enumerate(nbrs):
            first = len(to)
            rows.append(array("i", [2 * i]))
            rows.append(array("i", range(first, first + 2 * len(ws), 2)))
            for w in ws:
                to.append(2 * w)
                to.append(2 * i + 1)
                back[slot[w]] = len(to) - 1
                slot[w] += 1
        self.to = to
        self.cap = array("i", [1, 0]) * (len(to) // 2)
        self.arc_count = len(to)
        if slot[:-1] != starts[1:]:
            raise ValueError("adjacency rows must be symmetric")
        self.back_arcs, self.back_first = back, starts
        rows += [array("i"), array("i")]
        self.rows = rows
        self.row_plans: dict[bytes, _RowPlan] = {}
        self.byte_draws = max(map(len, nbrs), default=0) < 256
        self.busy = False


def _network(view) -> _SplitNetwork:
    """The static network of a view's graph, built on first use and kept
    on the graph."""
    g = view.graph
    if g.split_network is None:
        g.split_network = _SplitNetwork(g.nbrs)
    return g.split_network


class _FlowQuery:
    """One flow request on the shared network of a view.

    Creating it applies the query's view mask and capacity edits:
    ``entry_blocked`` vertices take no flow in over an edge (the X
    terminals of set paths, so that no path passes through a second
    one), ``no_split`` vertices pass none on (only their split arc
    closes, so flow that reaches one ends there and a search stops at
    it; none may be the start of a flow), and ``drop_edge`` closes one
    edge arc.  The start of a flow takes no edit, since nothing reads
    the arcs into it.  Use it as a context manager, whose exit undoes
    every augmentation (each static pair in ``flowed`` by its sum), edit
    and terminal arc, and puts back the static rows where a seeded query
    on a large view read them through a ``_SeededRows`` overlay.  The
    query sees only the view's vertices; to leave more out, pass
    ``view.without(...)``.
    """

    def __init__(self, view, order_seed=None, entry_blocked=(), no_split=()):
        self.net = net = _network(view)
        if net.busy:
            raise RuntimeError("flow queries on one network cannot nest")
        self.source, self.sink = net.source, net.sink
        # edited arc -> capacity before the query; a reverse arc starts every
        # query at 0 and edits touch even arcs only, so even arc k carries
        # flow cap[k + 1] of its edited capacity cap[k] + cap[k + 1]
        self.saved: dict[int, int] = {}
        self.flowed: set[int] = set()  # even arcs of augmented static pairs
        self.saved_rows: dict[int, array] = {}
        net.busy = True
        self.two_ended = view.vertex_count >= _TWO_ENDED_VERTICES
        try:
            self.marks, self.template = self._template(view.allowed)
            self._edit(entry_blocked, no_split, order_seed)
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

    def _template(self, allowed) -> tuple[list[int], list[int]]:
        """The vertex marks and the BFS ``parent`` start: -1 for vertices
        and nodes the query may enter."""
        nv = self.net.vertex_count
        if allowed is None:
            marks = [-1] * nv
        else:
            marks = [_OFF_VIEW] * nv
            for v in allowed:
                marks[v] = -1
        tpl = [-1] * (2 * nv + 2)
        tpl[0:2 * nv:2] = tpl[1:2 * nv:2] = marks
        return marks, tpl

    def _edit(self, entry_blocked, no_split, order_seed) -> None:
        net = self.net
        unsplit = set(no_split)
        for v in unsplit:
            self._set_cap(2 * v, 0)
        for v in entry_blocked:
            # the edge arcs into vin(v) are the partners of its back arcs
            for f in net.back_arcs[net.back_first[v]:net.back_first[v + 1]]:
                self._set_cap(f ^ 1, 0)
        if order_seed is None:
            return
        if self.two_ended and net.byte_draws:
            net.rows = _SeededRows(net, self.marks, order_seed, unsplit)
        else:
            self._shuffle(random.Random(order_seed).getrandbits, unsplit)

    def _shuffle(self, getrandbits, unsplit) -> None:
        """Shuffle the in-view forward arcs of every in-view vertex but the
        unsplit ones, in ascending order, with ``Random.shuffle``'s draws."""
        rows, to, tpl = self.net.rows, self.net.to, self.template
        for v in range(self.net.vertex_count):
            if tpl[2 * v] != -1 or v in unsplit:
                continue
            arcs = [e for e in rows[2 * v + 1] if tpl[to[e]] == -1]
            _fisher_yates(arcs, getrandbits)
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
        for k in self.flowed:
            cap[k] += cap[k + 1]
            cap[k + 1] = 0
        for e, c in self.saved.items():
            cap[e] = c
        if type(net.rows) is _SeededRows:
            net.rows = net.rows.static  # the overlay holds every row the query changed
        else:
            for node, row in self.saved_rows.items():
                net.rows[node] = row
        del net.to[net.arc_count:]
        del net.cap[net.arc_count:]
        self.saved.clear()
        self.flowed.clear()
        self.saved_rows.clear()
        net.busy = False

    def add_arc(self, tail: int, head: int, c: int) -> None:
        """Terminal arc for this query only, scanned last from its tail; it
        joins a ``vin`` node to the super source or sink, so a ``vout``
        node takes flow in through its split arc alone."""
        if self._is_vin(tail) == self._is_vin(head) or max(tail, head) < self.source:
            raise ValueError(f"arc {tail} -> {head} must join a vin node to the source or sink")
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
        if not (self._is_vin(t) or t == self.sink):
            raise ValueError(f"flow to node {t}: it must be a vin node or the super sink")
        net = self.net
        rows, to, cap = net.rows, net.to, net.cap
        template, flowed = self.template, self.flowed
        last_static = net.arc_count
        if self.two_ended:
            # the template serves as the distance labels; a phase keeps the
            # labels of its search set in both lists until ``clear``
            parent = template[:]
        phase = None
        value = 0
        try:
            while value < limit:
                if counter is not None:
                    counter.add()
                if self.two_ended:
                    path = phase.walk() if phase else None
                    if path is None:
                        if phase:
                            phase.clear()
                        phase = _two_ended(net, parent, template, s, t)
                        if phase is None:
                            break
                        path = phase.path
                else:
                    parent = template[:]
                    _bfs(rows, to, cap, parent, s, t)
                    if parent[t] < 0:
                        break
                    path = _chain(parent, to, s, t, [])
                for e in path:
                    k = e & -2
                    cap[e] -= 1
                    cap[e ^ 1] += 1
                    if k < last_static:
                        flowed.add(k)
                        # reverse arc k + 1 of a static pair is in the row of the
                        # head of k (a split reverse arc sorts first) while open
                        if e == k and cap[k + 1] == 1:
                            insort(self._own_row(to[k]), k + 1)
                        elif e != k and not cap[k + 1]:
                            self._own_row(to[k]).remove(k + 1)
                value += 1
        finally:
            if phase:
                phase.clear()
        return value

    def extract_paths(self, source: int, sink: int) -> list[Path]:
        """The flow's paths from source to sink, one per arc out of source
        that carries flow, in row order: each follows, from every next
        node, its one even arc with flow (``cap[e + 1] > 0``)."""
        rows, to, cap = self.net.rows, self.net.to, self.net.cap
        vertex_nodes = self.net.source
        paths = []
        for e in rows[source]:
            if e & 1 or not cap[e + 1]:
                continue
            vp = [source >> 1] if source < vertex_nodes else []
            node = to[e]
            while node != sink:
                if not node & 1:
                    vp.append(node >> 1)
                for f in rows[node]:
                    if not f & 1 and cap[f + 1]:
                        break
                node = to[f]
            if sink < vertex_nodes:
                vp.append(sink >> 1)
            paths.append(Path(tuple(vp)))
        return paths

    def witness_cut(self, source: int) -> tuple[int, ...]:
        """Vertex separator read off the residual cut of a maximum flow from
        `source`: every arc the query left open from a node the residual
        reaches to one it does not (so it carries flow) names the vertex
        of its head, or of its tail when its head is the super sink.  A
        flow that ends at ``vin(v)`` with the start's direct edge dropped
        needs no rule of its own: an arc into ``vin(v)`` that carries flow
        carries its tail's one unit, so the residual never reaches that
        tail and no such arc crosses the cut."""
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
                cut.add((node if w >= self.source else w) >> 1)
        return tuple(sorted(cut))


def _fisher_yates(arcs, bits) -> None:
    """Shuffle `arcs` in place with ``Random.shuffle``'s swaps, where
    ``bits(k)`` stands for ``getrandbits(k)``: for i from the last index
    down to 1, draw k = (i + 1).bit_length() bits until they are at most
    i, then swap arcs i and j."""
    for i in range(len(arcs) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = bits(k)
        while j > i:
            j = bits(k)
        arcs[i], arcs[j] = arcs[j], arcs[i]


@functools.cache
def _run_draws(length: int, count: int) -> re.Pattern:
    """Matches the top bytes of the words ``Random.shuffle`` draws for
    `count` rows of `length` arcs each, 0 <= length < 256, with group
    g + 1 starting where row g draws first (rows of 0 or 1 arcs draw
    nothing, so their groups all start where the match does).
    ``getrandbits(k)`` for k <= 8 is the top k bits of one 32-bit word,
    so the draw for index i is accepted exactly when its top byte is
    below (i + 1) << (8 - k).  Keys are bounded: lengths below 256,
    counts from 1 to ``_RUN_ROWS``."""
    parts = [b"()"]
    for i in range(length - 1, 0, -1):
        bound = (i + 1) << (8 - (i + 1).bit_length())
        parts.append(b"[\\x%02x-\\xff]*[\\x00-\\x%02x]" % (bound, bound - 1))
    return re.compile(b"".join(parts) * count)


class _RowPlan:
    """The rows a seeded query shuffles on one vertex mask: the in-view
    ``vout`` rows in ascending order, cut into runs of at most
    ``_RUN_ROWS`` rows of one in-view arc count.  ``where[v]`` is
    ``run * _RUN_ROWS + i`` for the i-th row of a run, -1 off the view;
    ``length[r]`` and ``count[r]`` are the arcs per row and the rows of
    run r."""

    __slots__ = ("where", "length", "count")

    def __init__(self, net, marks):
        nv, to, first = net.vertex_count, net.to, net.back_first
        # in-view arcs per row, counted from the smaller side: the heads
        # of in-view rows count in-view neighbours, those of the other
        # rows the neighbours to take off the degree
        inside = marks.count(-1)
        counted = -1 if 2 * inside <= nv else _OFF_VIEW
        heads = Counter(chain.from_iterable(
            to[2 * (nv + first[w]):2 * (nv + first[w + 1]):2]
            for w in compress(range(nv), map(counted.__eq__, marks)))).get
        where = self.where = array("i", [-1]) * nv
        self.length, self.count = array("i"), array("i")
        rows, last = _RUN_ROWS, -1
        for v in compress(range(nv), map((-1).__eq__, marks)):
            length = heads(2 * v, 0)
            if counted != -1:
                length = first[v + 1] - first[v] - length
            if length != last or rows == _RUN_ROWS:
                rows, last = 0, length
                self.length.append(length)
                self.count.append(0)
            where[v] = (len(self.count) - 1) * _RUN_ROWS + rows
            rows += 1
            self.count[-1] = rows


def _row_plan(net, marks) -> _RowPlan:
    """The row plan of a query's vertex marks, kept on the network for
    the ``_ROW_PLANS`` masks used last."""
    key = array("b", marks).tobytes()
    plans = net.row_plans
    plan = plans.pop(key, None)
    if plan is None:
        plan = _RowPlan(net, marks)
        if len(plans) >= _ROW_PLANS:
            del plans[next(iter(plans))]
    plans[key] = plan
    return plan


class _SeededRows(dict):
    """The rows of a seeded query on a large view, each built on first
    read: a pending ``vout`` row gets the swaps ``_FlowQuery._shuffle``
    would give it, decoded from the offset where its draws start, and any
    other row is the static one.  Creating it finds where each run of the
    view's ``_RowPlan`` draws first, in one pass over the top bytes of the
    stream (``getrandbits(32 * W)`` lists W words in stream order, least
    significant first) with one match of ``_run_draws`` per run.  The
    unsplit rows of a run draw nothing: they are holes in it, the run's
    pattern has a group for each other row, and a run of holes only is
    not matched.  The first read of a row in a run matches the run again
    (``matched`` keeps it for the query) and takes the row's group start:
    the row at position i has group i + 1 less the holes before it.
    Every row must have fewer than 256 arcs (``_SplitNetwork.byte_draws``).
    """

    def __init__(self, net, marks, seed, unsplit):
        super().__init__()
        self.static, self.to, self.marks = net.rows, net.to, marks
        self.plan = plan = _row_plan(net, marks)
        # the positions of the unsplit rows in each run, ascending
        self.holes: dict[int, list[int]] = {}
        for slot in sorted(plan.where[v] for v in unsplit):
            if slot >= 0:
                self.holes.setdefault(slot // _RUN_ROWS, []).append(slot % _RUN_ROWS)
        getrandbits = random.Random(seed).getrandbits
        top = bytearray()
        # per run its first offset and pattern, None for a run of holes
        self.run_at, self.draws, pos = array("i"), [], 0
        for run, (length, count) in enumerate(zip(plan.length, plan.count)):
            self.run_at.append(pos)
            count -= len(self.holes.get(run, ()))
            if not count:
                self.draws.append(None)
                continue
            draws = _run_draws(length, count)
            self.draws.append(draws)
            while (m := draws.match(top, pos)) is None:
                top.extend(getrandbits(32 * _DRAW_WORDS).to_bytes(4 * _DRAW_WORDS, "little")[3::4])
            pos = m.end()
        self.top, self.limit, self.matched = top, 2 * net.vertex_count, {}

    def __missing__(self, node: int) -> array:
        slot = self.plan.where[node >> 1] if node & 1 and node < self.limit else -1
        run, i = divmod(slot, _RUN_ROWS)
        holes = self.holes.get(run, ())
        if slot < 0 or i in holes:
            row = self.static[node]
        else:
            m = self.matched.get(run)
            if m is None:
                m = self.matched[run] = self.draws[run].match(self.top, self.run_at[run])
            to, marks = self.to, self.marks
            arcs = [e for e in self.static[node] if marks[to[e] >> 1] == -1]
            draw = iter(memoryview(self.top)[m.start(i - bisect(holes, i) + 1):]).__next__
            _fisher_yates(arcs, lambda k: draw() >> (8 - k))
            row = array("i", arcs)
        self[node] = row
        return row


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
                    push(h + 1)
                continue
            for f in row:
                w = to[f]
                if parent[w] == -1 and cap[f] > 0:
                    parent[w] = f
                    if w == t:
                        return
                    push(w)


def _chain(parent, to, s: int, node: int, path: list[int]) -> list[int]:
    """`path` extended by the ``parent`` arcs from `node` back to s."""
    while node != s:
        e = parent[node]
        path.append(e)
        node = to[e ^ 1]
    return path


class _Phase:
    """The labels of a two-ended search that found an augmenting path of
    ``length`` arcs (``path``, from t back to s), kept until ``clear`` so
    that ``walk`` finds the further paths of that length.

    ``parent`` holds the FIFO parents of forward levels 0..``forward``
    and ``dist`` the distances to t of backward levels 0..``backward``,
    the levels the search completed; ``front`` lists forward level
    ``forward``, and the levels after those may be partly labelled.
    ``fseen`` and ``bseen`` list the nodes each side labelled: a node and
    its partner ``x ^ 1`` share their vertex's mark, which is -1 unless
    the node is s, so ``clear`` puts both lists back.  ``ahead[j]``, set
    on the first walk, holds the nodes a walk may enter at position
    j <= ``forward``.
    """

    __slots__ = ("net", "parent", "dist", "s", "t", "mark", "fseen", "bseen", "path", "length",
                 "front", "forward", "backward", "ahead")

    def __init__(self, net, parent, dist, s: int, t: int, fseen, bseen):
        self.net, self.parent, self.dist, self.s, self.t = net, parent, dist, s, t
        self.mark = parent[s]
        self.fseen, self.bseen = fseen, bseen

    def found(self, path: list[int], front: list[int], forward: int, backward: int) -> _Phase:
        self.path, self.length = path, len(path)
        self.front, self.forward, self.backward = front, forward, backward
        self.ahead = None
        return self

    def clear(self) -> None:
        """Put back every label the search set; a second call changes nothing."""
        for seen, labels in ((self.fseen, self.parent), (self.bseen, self.dist)):
            for nodes in seen:
                for x in nodes:
                    labels[x] = labels[x ^ 1] = -1
            seen.clear()
        self.parent[self.s] = self.parent[self.s ^ 1] = self.mark

    def walk(self) -> list[int] | None:
        """The next FIFO augmenting path, from t back to s, while it has
        ``length`` arcs; None once there is none of that length.

        A depth-first search from s that scans each row in order and takes
        open arcs only.  At a position j <= ``forward`` it enters only a
        node of ``ahead[j]``, at a later one only a node at distance
        ``length - j`` from t, so a node has one position in the phase.  A
        node with no continuation is dead for the rest of the phase."""
        net, dist = self.net, self.dist
        rows, to, cap = net.rows, net.to, net.cap
        if self.ahead is None:
            self.ahead = self._ahead()
        ahead, length, forward, t = self.ahead, self.length, self.forward, self.t
        # the nodes of the path so far, its arcs, and the rest of each
        # node's row, which no walk changes
        nodes, arcs, scans = [self.s], [], [iter(rows[self.s])]
        while True:
            j = len(nodes)
            if j <= forward:
                early = ahead[j]
                for e in scans[-1]:
                    if cap[e] > 0 and (x := to[e]) in early:
                        break
                else:
                    x = None
            else:
                want = length - j
                for e in scans[-1]:
                    if cap[e] > 0 and dist[x := to[e]] == want:
                        break
                else:
                    x = None
            if x is None:
                if j == 1:
                    return None
                # the node at position j - 1 is dead
                u = nodes.pop()
                scans.pop()
                arcs.pop()
                if j - 1 <= forward:
                    ahead[j - 1].discard(u)
                else:
                    dist[u] = -1
                continue
            arcs.append(e)
            if x == t:
                arcs.reverse()
                return arcs
            nodes.append(x)
            scans.append(iter(rows[x]))

    def _ahead(self) -> list[set[int]]:
        """For each forward level j <= ``forward``, the nodes there with
        open arcs through levels j + 1, ... to a node of ``front`` at
        distance ``length - forward`` from t: every node a shortest path
        can still take at position j.  Found level by level down from
        ``front``, reading the arcs into a node as the backward search
        does."""
        net, parent, dist = self.net, self.parent, self.dist
        rows, to, cap = net.rows, net.to, net.cap
        back, first = net.back_arcs, net.back_first
        top, front = self.forward, self.front
        want = self.length - top
        if want <= self.backward:
            layer = {x for x in front if dist[x] == want}
        else:
            # the path meets the backward levels one step past the front:
            # the search scanned the rows of the front in order up to the
            # path's node there and met no distance label before it, and
            # augmenting opened no arc out of the nodes before it.  Order
            # does not matter here, so a seeded row no search has read yet
            # is read as its static row, whose other arcs leave the view.
            u = to[self.path[want - 1] ^ 1]
            layer = set()
            seeded = type(rows) is _SeededRows
            for x in front[front.index(u):]:
                for e in rows.static[x] if seeded and x not in rows else rows[x]:
                    if dist[to[e]] == want - 1 and cap[e] > 0:
                        layer.add(x)
                        break
        # the even levels below the front: level 0 is s and level 2i > 0 the
        # nodes forward step i queued
        evens = [{self.s}, *map(set, self.fseen[2:top // 2 + 1])]
        ahead = [layer]
        for j in range(top, 0, -1):
            # level j - 1 when it is even, else the level a vin node's parent
            # arc leaves there
            below = evens[(j - 1) // 2]
            if j & 1:
                layer = {p for x in layer
                         for arcs in (back[first[x >> 1]:first[(x >> 1) + 1]], rows[x])
                         for f in arcs if (p := to[f]) in below and cap[f ^ 1] > 0}
            else:
                # vout nodes: in through the split arc and, while the vertex
                # carries flow, the partners of the row
                tails = [x - 1 for x in layer if cap[x - 1] > 0]
                tails += [to[g] for x in layer if cap[x] > 0 for g in rows[x] if cap[g ^ 1] > 0]
                layer = {p for p in tails if parent[p] >= 0 and to[parent[p] ^ 1] in below}
            ahead.append(layer)
        ahead.reverse()
        return ahead


def _two_ended(net, parent, dist, s: int, t: int) -> _Phase | None:
    """The ``_Phase`` of the augmenting path ``_bfs`` finds from s to t (a
    ``vin`` node or the super sink), or None when there is none; found by
    level steps from both ends, each step on the end with the smaller
    frontier.

    A forward step takes the next two levels of the FIFO search from s,
    with its parents.  A backward step takes the next two levels of
    distances to t: from each ``vin`` node it reads the arcs into it
    (the partners of ``back_arcs`` and of its row) and expands each
    ``vout`` node on discovery through its split arc and, while the
    vertex carries flow, the partners of its row.  The start s is never
    expanded backward: reaching it is a meet.

    `parent` and `dist` must both equal the query template.  The search
    labels into them; the phase it returns keeps the labels until its
    ``clear``, and a search that finds no path or raises puts back every
    entry it set.  ``fdepth`` and ``depth`` are the levels of the two
    frontiers, each the last level its side completed; a backward step
    that meets still completes its nearer level.
    """
    rows, to, cap = net.rows, net.to, net.cap
    back, first, source = net.back_arcs, net.back_first, net.source
    if dist[t] != -1:
        return None
    # every labelled node is on a frontier, in a loose list, or the
    # partner of a node there: a vin node whose vout node it queued, or
    # a vout node whose vin node it queued backward
    floose, bloose = [], []
    phase = _Phase(net, parent, dist, s, t, [[s], floose], [[t], bloose])
    fseen, bseen = phase.fseen, phase.bseen
    try:
        parent[s] = -2
        dist[t] = 0
        fwd, bwd, fdepth, depth = [s], [t], 0, 0
        if t == net.sink:
            bwd, depth = [], 1
            bseen.append(bwd)
            for f in rows[t]:
                z = to[f]
                if dist[z] == -1 and cap[f ^ 1] > 0:
                    dist[z] = 1
                    bwd.append(z)
        while fwd and bwd:
            if len(fwd) <= len(bwd):
                # no meet so far, so every meet here is a shortest path; the
                # first is a vin node, found in FIFO order (a later vout node's
                # parent would have met first)
                nxt = []
                fseen.append(nxt)
                push = nxt.append
                for u in fwd:
                    for e in rows[u]:
                        h = to[e]
                        if parent[h] != -1 or cap[e] <= 0:
                            continue
                        parent[h] = e
                        if dist[h] != -1:
                            floose.append(h)
                            return phase.found(_join(rows, to, cap, parent, dist, s, h, t),
                                               fwd, fdepth, depth)
                        row = rows[h]
                        if len(row) == 1:
                            if cap[h] > 0 and parent[h + 1] == -1:
                                parent[h + 1] = h
                                push(h + 1)
                            else:
                                floose.append(h)
                            continue
                        floose.append(h)
                        for f in row:
                            w = to[f]
                            if parent[w] == -1 and cap[f] > 0:
                                parent[w] = f
                                push(w)
                fwd, fdepth = nxt, fdepth + 2
            else:
                # meets lie in the forward frontier, one step from this
                # frontier; once one is found only that level is finished
                nxt, meets = [], []
                bseen.append(nxt)
                push = nxt.append
                near, far = depth + 1, depth + 2
                for x in bwd:
                    v = x >> 1
                    for arcs in (back[first[v]:first[v + 1]], rows[x]):
                        for f in arcs:
                            y = to[f]
                            if dist[y] != -1 or cap[f ^ 1] <= 0:
                                continue
                            dist[y] = near
                            if parent[y] != -1:
                                meets.append(y)
                            if meets:
                                bloose.append(y)
                                continue
                            if y >= source:
                                bloose.append(y)
                            else:
                                if cap[y - 1] > 0 and dist[y - 1] == -1:
                                    dist[y - 1] = far
                                    push(y - 1)
                                else:
                                    bloose.append(y)
                                if cap[y] <= 0:
                                    continue
                            for g in rows[y]:
                                z = to[g]
                                if dist[z] == -1 and cap[g ^ 1] > 0:
                                    dist[z] = far
                                    push(z)
                if meets:
                    m = _fifo_first(rows, to, parent, meets)
                    return phase.found(_join(rows, to, cap, parent, dist, s, m, t),
                                       fwd, fdepth, near)
                bwd, depth = nxt, far
    except BaseException:
        phase.clear()
        raise
    phase.clear()
    return None


def _fifo_first(rows, to, parent, nodes) -> int:
    """The one of `nodes`, all on one forward level, that a FIFO search
    finds first: where two parent chains merge, the earlier arc in the
    row of the merge node leads to the earlier node."""
    best = nodes[0]
    for y in nodes[1:]:
        a, b = best, y
        while a != b:
            ea, eb = parent[a], parent[b]
            a, b = to[ea ^ 1], to[eb ^ 1]
        row = rows[a]
        if row.index(eb) < row.index(ea):
            best = y
    return best


def _join(rows, to, cap, parent, dist, s: int, m: int, t: int) -> list[int]:
    """The FIFO path through the meet m, from t back to s: the parents
    back to s, and from m the first arc of each row that takes one step
    closer to t, which is the FIFO path's continuation from m."""
    path, x = [], m
    while x != t:
        want = dist[x] - 1
        for e in rows[x]:
            if cap[e] > 0 and dist[to[e]] == want:
                break
        else:
            raise RuntimeError(
                f"labels out of step: no open arc out of node {x} reaches distance {want}")
        path.append(e)
        x = to[e]
    path.reverse()
    return _chain(parent, to, s, m, path)


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
    the first path of a u-v flow on the view without `avoid`."""
    avoid = frozenset(avoid)
    if u in avoid or v in avoid:
        raise ValueError(f"path ends {u}, {v} cannot be avoided")
    _require(view, (u, v))
    if u == v:
        return Path((u,))
    paths = max_internally_disjoint_paths(view.without(avoid) if avoid else view, u, v, 1).paths
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
    if limit is not None and limit < 0:
        raise ValueError(f"{limit} disjoint paths: the limit must be non-negative")
    cap = min(view.degree(u), view.degree(v))
    goal = cap if limit is None else min(limit, cap)
    with _FlowQuery(view, order_seed=order_seed, no_split=(v,)) as q:
        q.max_flow(q.vout(u), q.vin(v), goal, counter)
        paths = q.extract_paths(q.vout(u), q.vin(v))
    return PathFamily(tuple(paths))


def k_fan(view, x: int, targets, k: int, order_seed: int | None = None,
          counter: StepCounter | None = None) -> PathFamily:
    """k paths from x into `targets`, internally disjoint and internally
    avoiding the whole target set.  `targets` is a sequence of distinct
    vertices, each the end of at most one path, or a mapping
    {target: capacity}: a target of capacity c ends at most c paths, and
    one of capacity 0 ends none but is still avoided."""
    if isinstance(targets, Mapping):
        caps = dict(targets)
    else:
        caps = dict.fromkeys(_distinct(targets, "fan targets"), 1)
    if x in caps:
        raise ValueError(f"fan root {x} cannot be a target")
    if any(c < 0 for c in caps.values()):
        raise ValueError(f"fan target capacities must be non-negative, got {caps}")
    total = sum(caps.values())
    if k < 0:
        raise ValueError(f"a fan of {k} paths: k must be non-negative")
    if k > total:
        raise ValueError(f"fan of {k} paths needs target capacity {k}, got {total}")
    _require(view, [x, *caps])
    ys = sorted(caps)
    with _FlowQuery(view, order_seed=order_seed, no_split=ys) as q:
        for y in ys:
            if caps[y]:
                q.add_arc(q.vin(y), q.sink, caps[y])
        value = q.max_flow(q.vout(x), q.sink, k, counter)
        fam = PathFamily(tuple(q.extract_paths(q.vout(x), q.sink)))
        if value < k:
            raise InsufficientConnectivity(
                f"fan from {x} reached only {value} of {k} targets",
                achieved=fam, witness_cut=q.witness_cut(q.vout(x)))
    return fam


def disjoint_set_paths(view, xs, ys, k: int, order_seed: int | None = None) -> PathFamily:
    """k pairwise fully disjoint paths from X to Y, internally avoiding
    X and Y; members of X∩Y count as zero-length paths."""
    xs, ys = _distinct(xs, "terminals"), _distinct(ys, "terminals")
    if k < 0:
        raise ValueError(f"{k} disjoint paths: k must be non-negative")
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
    if shared:
        view = view.without(shared)
    with _FlowQuery(view, order_seed=order_seed, entry_blocked=xonly, no_split=yonly) as q:
        for x in xonly:
            q.add_arc(q.source, q.vin(x), 1)
        for y in yonly:
            q.add_arc(q.vin(y), q.sink, 1)
        value = q.max_flow(q.source, q.sink, need)
        fam = PathFamily(tuple(zero + q.extract_paths(q.source, q.sink)))
        if value < need:
            cut = q.witness_cut(q.source)
            raise InsufficientConnectivity(
                f"only {len(zero) + value} of {k} disjoint set paths exist",
                achieved=fam, witness_cut=tuple(sorted(set(cut) | set(shared))))
    return fam


def min_vertex_cut(view, u: int, v: int) -> CutResult:
    """Minimum u,v-separator; adjacent pairs are cut in the graph minus
    the direct edge and flagged."""
    _check_pair(view, u, v)
    adjacent = view.adjacent(u, v)
    # each unit leaves u and enters v on an edge of its own, so a flow of
    # the smaller degree is maximum: no search past it can augment
    with _FlowQuery(view, no_split=(v,)) as q:
        if adjacent:
            q.drop_edge(u, v)
        q.max_flow(q.vout(u), q.vin(v), min(view.degree(u), view.degree(v)))
        return CutResult(q.witness_cut(q.vout(u)), adjacent)


def local_connectivity(view, u: int, v: int) -> int:
    """Maximum number of internally disjoint u-v paths (direct edge counts)."""
    return len(max_internally_disjoint_paths(view, u, v).paths)


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
    nbrs = view.neighbors(v0)
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
