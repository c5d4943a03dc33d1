"""Independent structure checkers.

Everything here re-derives validity from a View's adjacency alone, so
the certificate verifier and the solver share one set of eyes that
never trusts solver bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flows import Path, PathFamily


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


def _family_violations(view, items, banned, shared) -> list[str]:
    """The paper's rule for internally disjoint paths, applied to
    ``(label, path, ends)`` items: each path is a path of the view that
    starts in ``ends[0]`` and stops in ``ends[1]`` (unless ``ends`` is
    None) with no ``banned`` vertex inside it; a vertex outside
    ``shared`` lies on one path only, and no edge lies on two."""
    out = []
    vertex_owner: dict[int, str] = {}
    edge_owner: dict[tuple[int, int], str] = {}
    for label, path, ends in items:
        out.extend(path_violations(view, path, label))
        vs = path.vertices
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
                owner = vertex_owner.setdefault(w, label)
                if owner != label:
                    out.append(f"vertex {w} shared by {owner} and {label}")
        for x, y in zip(vs, vs[1:]):
            e = (x, y) if x < y else (y, x)
            owner = edge_owner.setdefault(e, label)
            if owner != label:
                out.append(f"edge {e} shared by {owner} and {label}")
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
    out = []
    items = []
    for name, paths, ends, want in (("ab", structure.bundle_ab, ({a}, {b}), target.ab),
                                    ("ac", structure.bundle_ac, ({a}, {c}), target.ac),
                                    ("bc", structure.bundle_bc, ({b}, {c}), target.bc)):
        if len(paths) != want:
            out.append(f"bundle {name}: {len(paths)} paths, target {want}")
        items.extend((f"{name}[{i}]", p, ends) for i, p in enumerate(paths))
    out.extend(_family_violations(view, items, omega, omega))
    return VerdictReport.from_list(out)


def check_omega_path_set(view, omega, paths) -> VerdictReport:
    """Pairwise intersection exactly omega, no shared edges, each path
    carries all three terminals."""
    oset = set(omega)
    if len(oset) != 3:
        return VerdictReport.from_list([f"omega {omega} is not three distinct vertices"])
    items = [(f"T[{i}]", p, None) for i, p in enumerate(paths)]
    out = [f"{label}: misses terminals {sorted(oset.difference(p.vertices))}"
           for label, p, _ in items if not oset.issubset(p.vertices)]
    out.extend(_family_violations(view, items, (), oset))
    return VerdictReport.from_list(out)


def check_fan(view, x: int, targets, family: PathFamily, k: int) -> VerdictReport:
    tset = set(targets)
    paths = family.paths
    out = [] if len(paths) == k else [f"fan has {len(paths)} paths, want {k}"]
    # the root is shared, so only this catches two one-vertex paths [x]
    if x in tset and sum(p.vertices == (x,) for p in paths) > 1:
        out.append("fan targets repeat")
    ends = ({x}, tset)
    items = [(f"fan[{i}]", p, ends) for i, p in enumerate(paths)]
    out.extend(_family_violations(view, items, tset | {x}, {x}))
    return VerdictReport.from_list(out)


def check_disjoint_set_paths(view, xs, ys, family: PathFamily, k: int) -> VerdictReport:
    ends = (set(xs), set(ys))
    paths = family.paths
    out = [] if len(paths) == k else [f"{len(paths)} paths, want {k}"]
    items = [(f"p[{i}]", p, ends) for i, p in enumerate(paths)]
    out.extend(_family_violations(view, items, ends[0] | ends[1], ()))
    return VerdictReport.from_list(out)


def check_internally_disjoint(view, u: int, v: int, family: PathFamily) -> VerdictReport:
    ends = ({u}, {v})
    items = [(f"p[{i}]", p, ends) for i, p in enumerate(family.paths)]
    return VerdictReport.from_list(_family_violations(view, items, {u, v}, {u, v}))
