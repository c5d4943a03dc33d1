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
    for v in vs:
        if not view.contains(v):
            out.append(f"{label}: vertex {v} outside the view")
    for i in range(len(vs) - 1):
        if view.contains(vs[i]) and view.contains(vs[i + 1]):
            if not view.adjacent(vs[i], vs[i + 1]):
                out.append(f"{label}: {vs[i]} and {vs[i + 1]} are not adjacent")
    return out


def _interior_conflicts(paths_with_labels) -> list[str]:
    owner: dict[int, str] = {}
    out = []
    for label, path in paths_with_labels:
        for w in path.interior():
            if w in owner:
                out.append(f"vertex {w} interior to both {owner[w]} and {label}")
            else:
                owner[w] = label
    return out


def _edge_conflicts(paths_with_labels) -> list[str]:
    seen: dict[tuple[int, int], str] = {}
    out = []
    for label, path in paths_with_labels:
        for e in path.edges():
            if e in seen:
                out.append(f"edge {e} shared by {seen[e]} and {label}")
            else:
                seen[e] = label
    return out


def check_tripod(view, structure, target, exact: bool = True) -> VerdictReport:
    """Bundle counts, endpoints, and global internal disjointness."""
    out = []
    a, b, c = structure.omega
    if len({a, b, c}) != 3:
        out.append(f"terminals {structure.omega} are not distinct")
        return VerdictReport.from_list(out)
    omega = {a, b, c}
    bundles = [
        ("ab", structure.bundle_ab, (a, b), target.ab),
        ("ac", structure.bundle_ac, (a, c), target.ac),
        ("bc", structure.bundle_bc, (b, c), target.bc),
    ]
    labeled = []
    for name, paths, (s, t), want in bundles:
        if exact and len(paths) != want:
            out.append(f"bundle {name}: {len(paths)} paths, target {want}")
        if not exact and len(paths) < want:
            out.append(f"bundle {name}: {len(paths)} paths, need at least {want}")
        for i, p in enumerate(paths):
            label = f"{name}[{i}]"
            labeled.append((label, p))
            out.extend(path_violations(view, p, label))
            if p.vertices and (p.vertices[0] != s or p.vertices[-1] != t):
                out.append(f"{label}: endpoints {p.vertices[0]},{p.vertices[-1]} "
                           f"want {s},{t}")
            for w in p.interior():
                if w in omega:
                    out.append(f"{label}: terminal {w} appears internally")
    out.extend(_interior_conflicts(labeled))
    out.extend(_edge_conflicts(labeled))
    return VerdictReport.from_list(out)


def check_omega_path_set(view, omega, paths) -> VerdictReport:
    """Pairwise intersection exactly omega, no shared edges, each path
    carries all three terminals."""
    out = []
    oset = set(omega)
    if len(oset) != 3:
        out.append(f"omega {omega} is not three distinct vertices")
        return VerdictReport.from_list(out)
    labeled = []
    seen_by: dict[int, str] = {}
    for i, p in enumerate(paths):
        label = f"T[{i}]"
        labeled.append((label, p))
        out.extend(path_violations(view, p, label))
        missing = oset - set(p.vertices)
        if missing:
            out.append(f"{label}: misses terminals {sorted(missing)}")
        for w in p.vertices:
            if w in oset:
                continue
            if w in seen_by:
                out.append(f"vertex {w} shared by {seen_by[w]} and {label}")
            else:
                seen_by[w] = label
    out.extend(_edge_conflicts(labeled))
    return VerdictReport.from_list(out)


def check_fan(view, x: int, targets, family: PathFamily, k: int) -> VerdictReport:
    out = []
    tset = set(targets)
    if len(family.paths) != k:
        out.append(f"fan has {len(family.paths)} paths, want {k}")
    ends = []
    labeled = []
    for i, p in enumerate(family.paths):
        label = f"fan[{i}]"
        labeled.append((label, p))
        out.extend(path_violations(view, p, label))
        if p.vertices[0] != x:
            out.append(f"{label}: starts at {p.vertices[0]}, not the root {x}")
        if p.vertices[-1] not in tset:
            out.append(f"{label}: ends at {p.vertices[-1]}, not a target")
        ends.append(p.vertices[-1])
        for w in p.interior():
            if w in tset or w == x:
                out.append(f"{label}: {w} appears internally")
    if len(set(ends)) != len(ends):
        out.append("fan targets repeat")
    out.extend(_interior_conflicts(labeled))
    out.extend(_edge_conflicts(labeled))
    return VerdictReport.from_list(out)


def check_disjoint_set_paths(view, xs, ys, family: PathFamily, k: int) -> VerdictReport:
    out = []
    xset, yset = set(xs), set(ys)
    if len(family.paths) != k:
        out.append(f"{len(family.paths)} paths, want {k}")
    used: dict[int, str] = {}
    starts, ends = [], []
    for i, p in enumerate(family.paths):
        label = f"p[{i}]"
        out.extend(path_violations(view, p, label))
        s, t = p.vertices[0], p.vertices[-1]
        if len(p.vertices) == 1:
            if s not in xset or s not in yset:
                out.append(f"{label}: zero-length path at {s} needs a shared terminal")
        else:
            if s not in xset:
                out.append(f"{label}: start {s} not in X")
            if t not in yset:
                out.append(f"{label}: end {t} not in Y")
        starts.append(s)
        ends.append(t)
        for w in p.interior():
            if w in xset or w in yset:
                out.append(f"{label}: terminal-set vertex {w} appears internally")
        for w in p.vertices:
            if w in used:
                out.append(f"vertex {w} used by {used[w]} and {label}")
            else:
                used[w] = label
    if len(set(starts)) != len(starts):
        out.append("start vertices repeat")
    if len(set(ends)) != len(ends):
        out.append("end vertices repeat")
    out.extend(_edge_conflicts([(f"p[{i}]", p) for i, p in enumerate(family.paths)]))
    return VerdictReport.from_list(out)


def check_internally_disjoint(view, u: int, v: int, family: PathFamily) -> VerdictReport:
    out = []
    labeled = []
    for i, p in enumerate(family.paths):
        label = f"p[{i}]"
        labeled.append((label, p))
        out.extend(path_violations(view, p, label))
        if p.vertices[0] != u or p.vertices[-1] != v:
            out.append(f"{label}: endpoints {p.vertices[0]},{p.vertices[-1]} want {u},{v}")
        for w in p.interior():
            if w in (u, v):
                out.append(f"{label}: terminal {w} appears internally")
    out.extend(_interior_conflicts(labeled))
    out.extend(_edge_conflicts(labeled))
    return VerdictReport.from_list(out)
