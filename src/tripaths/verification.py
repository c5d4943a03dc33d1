"""Independent structure checkers, the records they check, and the bounds.

Everything here re-derives validity from a View's adjacency alone, so
the certificate verifier and the solver share one set of eyes that
never trusts solver bookkeeping.  Only ``graphs``, ``perms`` and
``errors`` are imported, so a verifier loads no solver module.

A checker decides each path in one pass (``View.is_walk`` and one
claim of its vertices and edges); only a rejected path is walked again,
by ``path_violations`` and the owner loops, to name its faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import DuplicateVertices, RankOutOfRange
from .graphs import CayleyGraph, Path, PathFamily, full_view
from .perms import Family


@dataclass(frozen=True)
class StructureTarget:
    ab: int
    ac: int
    bc: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.ab, self.ac, self.bc)


def standard_target(n: int) -> StructureTarget:
    """Bundle sizes carried by the main construction: (2d-2)^3 for n=2d,
    (2d-2, 2d, 2d) for n=2d+1."""
    d = n // 2
    if n % 2 == 0:
        k = 2 * d - 2
        return StructureTarget(k, k, k)
    return StructureTarget(2 * d - 2, 2 * d, 2 * d)


@dataclass(frozen=True)
class TripodStructure:
    omega: tuple[int, int, int]
    bundle_ab: tuple[Path, ...]
    bundle_ac: tuple[Path, ...]
    bundle_bc: tuple[Path, ...]

    def counts(self) -> tuple[int, int, int]:
        return (len(self.bundle_ab), len(self.bundle_ac), len(self.bundle_bc))

    def all_paths(self) -> list[Path]:
        return list(self.bundle_ab) + list(self.bundle_ac) + list(self.bundle_bc)

    @classmethod
    def from_tagged(cls, omega, tagged) -> "TripodStructure":
        """Bucket ("ab" | "ac" | "bc", path) pairs into bundles in the order
        given, each path oriented from its tag's first terminal."""
        a, b, c = omega
        starts = {"ab": a, "ac": a, "bc": b}
        bundles = {"ab": [], "ac": [], "bc": []}
        for tag, path in tagged:
            if path.vertices[0] != starts[tag]:
                path = path.reverse()
            bundles[tag].append(path)
        return cls(tuple(omega), tuple(bundles["ab"]), tuple(bundles["ac"]),
                   tuple(bundles["bc"]))


@dataclass(frozen=True)
class OmegaPathSet:
    omega: tuple[int, int, int]
    paths: tuple[Path, ...]

    def __len__(self) -> int:
        return len(self.paths)


def pairing_capacity(x: int, y: int, z: int) -> int:
    """Largest number of terminal-spanning paths obtainable by pairing
    bundles of sizes x, y, z at shared endpoints."""
    if min(x, y, z) < 0:
        raise ValueError(f"bundle sizes must be non-negative, got {(x, y, z)}")
    return min((x + y + z) // 2, x + y, y + z, z + x)


def check_terminals(view, omega) -> None:
    """Raise unless omega is three distinct vertices of the view."""
    if len(set(omega)) != 3:
        raise DuplicateVertices(f"need three distinct terminals, got {tuple(omega)}")
    for v in omega:
        if not view.contains(v):
            raise RankOutOfRange(f"terminal {v} is not in the view")


@dataclass(frozen=True)
class VerdictReport:
    ok: bool
    violations: tuple[str, ...]

    @staticmethod
    def from_list(violations) -> "VerdictReport":
        vs = tuple(violations)
        return VerdictReport(not vs, vs)


def path_violations(view, path: Path, label: str) -> list[str]:
    out = []
    vs = path.vertices
    if not vs:
        return [f"{label}: empty path"]
    if len(set(vs)) != len(vs):
        dup = next(v for v in vs if vs.count(v) > 1)
        out.append(f"{label}: vertex {dup} repeats")
    outside, gaps = view.path_gaps(vs)
    out.extend(f"{label}: vertex {v} outside the view" for v in outside)
    out.extend(f"{label}: {x} and {y} are not adjacent" for x, y in gaps)
    return out


def _family_violations(view, groups, banned, shared) -> list[str]:
    """The paper's rule for internally disjoint paths, applied to
    ``(name, paths, ends)`` groups: each path is a path of the view that
    starts in ``ends[0]`` and stops in ``ends[1]`` (unless ``ends`` is
    None) with no ``banned`` vertex inside it; a vertex outside
    ``shared`` lies on one path only, and no edge lies on two.

    One pass decides a path: it is clean when it is non-empty, repeats
    no vertex, has its ends, keeps ``banned`` out of its inside, is a
    walk of the view, and claims each vertex outside ``shared`` and each
    edge for its key ``(name, i)`` before any other path does.  A clean
    path yields no message, and no label ``name[i]`` is formatted for it.
    Any other path is walked again below for its messages; what it
    claimed was free, so every owner and message, order included, is
    the one a walk of every path would give."""
    out = []
    vertex_owner: dict[int, tuple[str, int]] = {}
    edge_owner: dict[tuple[int, int], tuple[str, int]] = {}
    for name, paths, ends in groups:
        for i, path in enumerate(paths):
            key = (name, i)
            vs = path.vertices
            if (vs and len(set(vs)) == len(vs)
                    and (ends is None or vs[0] in ends[0] and vs[-1] in ends[1])
                    and (not banned or banned.isdisjoint(vs[1:-1]))
                    and view.is_walk(vs)):
                # claim its vertices and edges; a clean path is done here
                x = None
                for y in vs:
                    if y not in shared:
                        if y in vertex_owner:
                            break
                        vertex_owner[y] = key
                    if x is not None:
                        e = (x, y) if x < y else (y, x)
                        if e in edge_owner:
                            break
                        edge_owner[e] = key
                    x = y
                else:
                    continue
            # a rejected path: walk it again for its messages
            label = f"{name}[{i}]"
            out.extend(path_violations(view, path, label))
            if not vs:
                continue
            if ends is not None and (vs[0] not in ends[0] or vs[-1] not in ends[1]):
                want = ",".join("|".join(map(str, sorted(e))) for e in ends)
                out.append(f"{label}: endpoints {vs[0]},{vs[-1]} want {want}")
            if banned:
                for w in vs[1:-1]:
                    if w in banned:
                        out.append(f"{label}: {w} appears internally")
            for w in vs:
                if w not in shared:
                    owner = vertex_owner.setdefault(w, key)
                    if owner != key:
                        out.append(f"vertex {w} shared by {owner[0]}[{owner[1]}] and {label}")
            for x, y in zip(vs, vs[1:]):
                e = (x, y) if x < y else (y, x)
                owner = edge_owner.setdefault(e, key)
                if owner != key:
                    out.append(f"edge {e} shared by {owner[0]}[{owner[1]}] and {label}")
    return out


def check_tripod(view, structure, target, *, exact: bool = True) -> VerdictReport:
    """Bundle counts equal to the target, endpoints, and global internal
    disjointness.  Counts are only ever checked exactly; ``exact`` stays
    because the benchmark harness (``bench/run.py``) still passes
    ``exact=True``."""
    if not exact:
        raise ValueError("check_tripod checks exact bundle counts only")
    a, b, c = structure.omega
    omega = {a, b, c}
    if len(omega) != 3:
        return VerdictReport.from_list([f"terminals {structure.omega} are not distinct"])
    groups = (("ab", structure.bundle_ab, ({a}, {b})), ("ac", structure.bundle_ac, ({a}, {c})),
              ("bc", structure.bundle_bc, ({b}, {c})))
    out = [f"bundle {name}: {len(paths)} paths, target {want}"
           for (name, paths, _), want in zip(groups, (target.ab, target.ac, target.bc))
           if len(paths) != want]
    out.extend(_family_violations(view, groups, omega, omega))
    return VerdictReport.from_list(out)


def check_omega_path_set(view, omega, paths) -> VerdictReport:
    """Pairwise intersection exactly omega, no shared edges, each path
    carries all three terminals."""
    oset = set(omega)
    if len(oset) != 3:
        return VerdictReport.from_list([f"omega {omega} is not three distinct vertices"])
    out = [f"T[{i}]: misses terminals {sorted(oset.difference(p.vertices))}"
           for i, p in enumerate(paths) if not oset.issubset(p.vertices)]
    out.extend(_family_violations(view, [("T", paths, None)], (), oset))
    return VerdictReport.from_list(out)


def check_fan(view, x: int, targets, family: PathFamily, k: int) -> VerdictReport:
    tset = set(targets)
    paths = family.paths
    out = [] if len(paths) == k else [f"fan has {len(paths)} paths, want {k}"]
    # the root is shared, so only this catches two one-vertex paths [x]
    if x in tset and sum(p.vertices == (x,) for p in paths) > 1:
        out.append("fan targets repeat")
    out.extend(_family_violations(view, [("fan", paths, ({x}, tset))], tset | {x}, {x}))
    return VerdictReport.from_list(out)


def check_disjoint_set_paths(view, xs, ys, family: PathFamily, k: int) -> VerdictReport:
    ends = (set(xs), set(ys))
    paths = family.paths
    out = [] if len(paths) == k else [f"{len(paths)} paths, want {k}"]
    out.extend(_family_violations(view, [("p", paths, ends)], ends[0] | ends[1], ()))
    return VerdictReport.from_list(out)


def check_internally_disjoint(view, u: int, v: int, family: PathFamily) -> VerdictReport:
    groups = [("p", family.paths, ({u}, {v}))]
    return VerdictReport.from_list(_family_violations(view, groups, {u, v}, {u, v}))


# ------------------------------------------------------------------ bounds

@dataclass(frozen=True)
class UpperBoundReport:
    value: int
    connectivity: int
    r: int
    witness: tuple[int, int, int] | None


def formula_value(n: int) -> int:
    return (6 * n - 9) // 4


def max_triple_common_neighbors(g: CayleyGraph) -> tuple[int, tuple[int, int, int] | None]:
    """Exact maximum |N(u) ∩ N(v) ∩ N(w)| over vertex triples.

    Scans pairs at distance two (adjacent pairs share no neighbors in
    these families) and extends by a third vertex; both families cap the
    answer at 3, so the scan exits early on a witness of that size.
    """
    best, witness = 0, None
    view = full_view(g)

    @cache
    def nbr(v: int) -> frozenset[int]:
        # built on first use: the scan usually stops within the first
        # vertex's neighbourhood, long before it has seen every vertex
        return frozenset(view.neighbors(v))

    for u in range(g.vertex_count):
        two_away = set()
        for w1 in nbr(u):
            two_away.update(nbr(w1))
        for v in sorted(two_away):
            if v <= u or v in nbr(u):
                continue
            cn = nbr(u) & nbr(v)
            if len(cn) <= best:
                continue
            cands = set()
            for m in cn:
                cands.update(nbr(m))
            for t in sorted(cands):
                if t in (u, v):
                    continue
                k = len(cn & nbr(t))
                if k > best:
                    best, witness = k, (u, v, t)
                    if best >= 3:
                        return best, witness
    return best, witness


def pi3_upper(g: CayleyGraph) -> UpperBoundReport:
    """Degree/packing upper bound from the maximum shared-neighbor count.

    Let the triple have degree k and r common neighbours.  A path through
    all three uses at least 4 of the 3k edges at the triple, and a common
    neighbour lies on at most one path and spends at most 2 of its 3
    edges there, so at most floor((3k - r) / 4) paths exist.
    """
    if g.family is Family.WHEEL:
        k = 2 * g.n - 2
    else:
        k = 2 * g.n - 3
    r, witness = max_triple_common_neighbors(g)
    value = (3 * k - r) // 4
    return UpperBoundReport(value, k, r, witness)
