"""The structure checkers that guard every certificate: each violation
they look for, made once on a built n = 5 structure and its Ω-paths, and
on fans, set-to-set paths and u–v paths of the same graph."""

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripaths import verification
from tripaths.construct import build_structure
from tripaths.flows import disjoint_set_paths, k_fan, max_internally_disjoint_paths
from tripaths.graphs import (
    Path,
    build,
    copy_union,
    full_view,
    spanning_intra_view,
)
from tripaths.pairing import pair_structure
from tripaths.perms import Family
from tripaths.verification import (
    check_disjoint_set_paths,
    check_fan,
    check_internally_disjoint,
    check_omega_path_set,
    check_tripod,
    standard_target,
)

G5 = build(5, Family.WHEEL)
VIEW = full_view(G5)
TARGET = standard_target(5)
# a one-copy triple whose ab bundle holds a detour and the direct edge
STRUCTURE, _ = build_structure(G5, (14, 32, 56))
OMEGA_PATHS = pair_structure(VIEW, STRUCTURE).paths
FAN_TARGETS = (60, 61, 62, 63)
FAN = k_fan(VIEW, 0, FAN_TARGETS, 4)
XS, YS = (0, 1, 2), (100, 101, 102)
SET_PATHS = disjoint_set_paths(VIEW, XS, YS, 3)
UV_PATHS = max_internally_disjoint_paths(VIEW, 0, 119)


def _with_ab(*paths):
    return replace(STRUCTURE, bundle_ab=paths)


def _detour():
    return next(p for p in STRUCTURE.bundle_ab if len(p.vertices) > 2)


def _direct():
    return next(p for p in STRUCTURE.bundle_ab if len(p.vertices) == 2)


def _to_second_terminal(path):
    """The prefix of an Ω-path that stops at its second terminal."""
    hits = [i for i, w in enumerate(path.vertices) if w in STRUCTURE.omega]
    return Path(path.vertices[:hits[1] + 1])


def _tripod(structure, view=VIEW):
    return check_tripod(view, structure, TARGET)


def _omega(paths):
    return check_omega_path_set(VIEW, STRUCTURE.omega, paths)


def _fan(paths, targets=FAN_TARGETS):
    return check_fan(VIEW, 0, targets, paths, len(paths))


def _sets(paths):
    return check_disjoint_set_paths(VIEW, XS, YS, paths, 3)


def _uv(paths):
    return check_internally_disjoint(VIEW, 0, 119, paths)


MUTATIONS = {
    "empty-path": (lambda: _tripod(_with_ab(Path(()), _direct())),
                   r"^ab\[0\]: empty path$"),
    "outside-view": (lambda: _tripod(STRUCTURE, VIEW.without({_detour().interior()[0]})),
                     r"^ab\[\d\]: vertex \d+ outside the view$"),
    "wrong-endpoints": (lambda: _tripod(_with_ab(_detour().reverse(), _direct())),
                        r"^ab\[0\]: endpoints 56,32 want 32,56$"),
    "shared-interior": (lambda: _tripod(_with_ab(_detour(), _detour())),
                        r"^vertex \d+ shared by ab\[0\] and ab\[1\]$"),
    "shared-edge": (lambda: _tripod(_with_ab(_direct(), _direct())),
                    r"^edge \(32, 56\) shared by ab\[0\] and ab\[1\]$"),
    # a..c..b: a walk with the right ends through the third terminal
    "through-terminal": (
        lambda: _tripod(_with_ab(Path(STRUCTURE.bundle_ac[0].vertices
                                      + STRUCTURE.bundle_bc[0].reverse().vertices[1:]),
                                 _direct())),
        r"^ab\[0\]: 14 appears internally$"),
    # a..b..a..c: every terminal on it, a twice, no edge twice
    "omega-repeated-terminal": (
        lambda: _omega((Path(_detour().vertices + _direct().reverse().vertices[1:]
                             + STRUCTURE.bundle_ac[0].vertices[1:]),)),
        r"^T\[0\]: vertex 32 repeats$"),
    "omega-missing-terminal": (
        lambda: _omega((_to_second_terminal(OMEGA_PATHS[0]),) + OMEGA_PATHS[1:]),
        r"^T\[0\]: misses terminals \[\d+\]$"),
    "omega-shared-vertex": (lambda: _omega((OMEGA_PATHS[0],) + OMEGA_PATHS),
                            r"^vertex \d+ shared by T\[0\] and T\[1\]$"),
    "fan-empty-path": (lambda: _fan((Path(()),) + FAN[1:]), r"^fan\[0\]: empty path$"),
    # two internally disjoint 0–61 paths: they share their end and nothing else
    "fan-repeated-target": (
        lambda: _fan(max_internally_disjoint_paths(VIEW, 0, 61)[:2], (61, 62)),
        r"^vertex 61 shared by fan\[0\] and fan\[1\]$"),
    "fan-root-is-target": (lambda: _fan((Path((0,)), Path((0,))), (0, 61)),
                           r"^fan targets repeat$"),
    # set paths and u–v paths are both labelled p[i], so their mutations
    # sit at different indices to keep each message their own
    "set-empty-path": (lambda: _sets((Path(()),) + SET_PATHS[1:]), r"^p\[0\]: empty path$"),
    "set-shared-vertex": (lambda: _sets((SET_PATHS[0],) + SET_PATHS[:2]),
                          r"^vertex \d+ shared by p\[0\] and p\[1\]$"),
    "set-wrong-count": (lambda: _sets(SET_PATHS[:2]), r"^2 paths, want 3$"),
    "uv-empty-path": (lambda: _uv((UV_PATHS[0], Path(()))), r"^p\[1\]: empty path$"),
    "uv-shared-interior": (lambda: _uv((UV_PATHS[0], UV_PATHS[1], UV_PATHS[1])),
                           r"^vertex \d+ shared by p\[1\] and p\[2\]$"),
}


def test_unmutated_structure_passes():
    assert STRUCTURE.omega == (32, 56, 14)
    assert _tripod(STRUCTURE).violations == ()
    assert _omega(OMEGA_PATHS).violations == ()
    assert _fan(FAN).violations == ()
    assert _sets(SET_PATHS).violations == ()
    assert _uv(UV_PATHS).violations == ()


def test_clean_families_never_reach_the_explanation(monkeypatch):
    """A family that passes is decided in one pass: no path of it is
    walked again for messages.  Built structures on the n = 5 full view,
    the n = 6 spanning view (an ExplicitGraph) and the n = 7 full view
    pass ``pair_structure`` and the fan, set and u–v families pass their
    checks with the message code made to raise."""
    g6, g7 = build(6, Family.WHEEL), build(7, Family.WHEEL)
    even, case = build_structure(g6, (125, 546, 658))
    odd, _ = build_structure(g7, (85, 3539, 4799))
    assert case.case_id == "Even"
    built = [(VIEW, STRUCTURE), (spanning_intra_view(g6), even), (full_view(g7), odd)]

    def explain(*args):
        raise AssertionError("a clean path was walked for its messages")

    monkeypatch.setattr(verification, "path_violations", explain)
    for view, structure in built:
        pair_structure(view, structure)
    assert _fan(FAN).ok and _sets(SET_PATHS).ok and _uv(UV_PATHS).ok


def test_check_tripod_checks_counts_exactly_only():
    # counts are checked exactly only; ``exact=True`` is still accepted
    assert check_tripod(VIEW, STRUCTURE, TARGET, exact=True).ok
    with pytest.raises(ValueError, match="exact bundle counts only"):
        check_tripod(VIEW, STRUCTURE, TARGET, exact=False)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_violation_is_reported_by_its_own_message(name):
    message = MUTATIONS[name][1]
    hits = {other: any(re.match(message, v) for v in check().violations)
            for other, (check, _) in MUTATIONS.items()}
    assert [other for other, hit in hits.items() if hit] == [name]


def _reference_path_violations(view, path, label):
    """``path_violations`` as it was before ``View.path_gaps``: one
    ``contains`` per vertex and one ``adjacent`` per step."""
    out = []
    vs = path.vertices
    if not vs:
        return [f"{label}: empty path"]
    if len(set(vs)) != len(vs):
        dup = next(v for v in vs if vs.count(v) > 1)
        out.append(f"{label}: vertex {dup} repeats")
    outside = [v for v in vs if not view.contains(v)]
    for v in outside:
        out.append(f"{label}: vertex {v} outside the view")
    for x, y in zip(vs, vs[1:]):
        if x not in outside and y not in outside and not view.adjacent(x, y):
            out.append(f"{label}: {x} and {y} are not adjacent")
    return out


def _reference_family_violations(view, items, banned, shared):
    """``_family_violations`` as it was before it walked consecutive
    pairs: each edge is a step of the path with its ends in order."""
    out = []
    vertex_owner, edge_owner = {}, {}
    for label, path, ends in items:
        out.extend(_reference_path_violations(view, path, label))
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
        for i in range(len(vs) - 1):
            e = (vs[i], vs[i + 1]) if vs[i] < vs[i + 1] else (vs[i + 1], vs[i])
            owner = edge_owner.setdefault(e, label)
            if owner != label:
                out.append(f"edge {e} shared by {owner} and {label}")
    return out


def _reference_groups(view, groups, banned, shared):
    """``_reference_family_violations`` on ``(name, paths, ends)`` groups,
    each path labelled ``name[i]``."""
    items = [(f"{name}[{i}]", p, ends) for name, paths, ends in groups
             for i, p in enumerate(paths)]
    return _reference_family_violations(view, items, banned, shared)


# the full view, the spanning view that lacks the (2 5) edges, and a
# restricted view that lacks some structure vertices
CHECK_VIEWS = (VIEW, spanning_intra_view(G5),
               copy_union(G5, set(G5.copy_id[v] for v in STRUCTURE.omega)).without({1, 2}))
BUNDLES = (STRUCTURE.bundle_ab, STRUCTURE.bundle_ac, STRUCTURE.bundle_bc)
KINDS = ("repeat", "off-view", "float", "bool", "jump", "shared-vertex", "shared-edge",
         "banned", "ends", "empty")


def _mutate(draw, paths, kind, view):
    """Apply one mutation of `kind` to one of the vertex lists `paths`."""
    vs = paths[draw(st.integers(0, len(paths) - 1))]
    other = paths[draw(st.integers(0, len(paths) - 1))]
    if kind == "empty" or not vs:
        vs.clear()
        return
    at = draw(st.integers(0, len(vs) - 1))
    if kind == "repeat":
        vs.insert(at, draw(st.sampled_from(vs)))
    elif kind == "off-view":
        vs[at] = draw(st.sampled_from([-1, 120, *(v for v in range(120) if not view.contains(v))]))
    elif kind in ("float", "bool"):
        w = draw(st.sampled_from(vs + other)) if kind == "float" else draw(st.sampled_from([0, 1]))
        vs[at] = float(w) if kind == "float" else bool(w)
        if draw(st.booleans()):
            # the int it equals: an outside member skips the steps of
            # every member equal to it
            vs.insert(draw(st.integers(0, len(vs))), w)
    elif kind == "jump":
        vs[at] = draw(st.integers(0, 119))
    elif kind == "shared-vertex" and other:
        vs.insert(at, draw(st.sampled_from(other)))
    elif kind == "shared-edge" and len(other) > 1:
        vs[:1] = other[:2]
    elif kind == "banned":
        vs.insert(max(at, 1), draw(st.sampled_from(STRUCTURE.omega + FAN_TARGETS + XS + YS)))
    elif kind == "ends":
        vs.reverse() if draw(st.booleans()) else vs.pop()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_checkers_match_the_reference_checkers(data):
    """Mutated bundles, Ω-paths, fans, set-to-set paths and u–v paths get
    the same violation lists, messages and order included, from the
    checkers as from the reference copies above, on full, spanning and
    restricted views."""
    view = data.draw(st.sampled_from(CHECK_VIEWS))
    groups = (*BUNDLES, OMEGA_PATHS, FAN, SET_PATHS, UV_PATHS)
    paths = [list(p.vertices) for group in groups for p in group]
    for kind in data.draw(st.lists(st.sampled_from(KINDS), max_size=3)):
        _mutate(data.draw, paths, kind, view)
    cut = iter(map(Path, map(tuple, paths)))
    ab, ac, bc, omega_paths, fan, sets, uv = (tuple(next(cut) for _ in group)
                                              for group in groups)
    structure = replace(STRUCTURE, bundle_ab=ab, bundle_ac=ac, bundle_bc=bc)

    def reports():
        return (check_tripod(view, structure, TARGET).violations,
                check_omega_path_set(view, STRUCTURE.omega, omega_paths).violations,
                [verification.path_violations(view, p, "p") for p in omega_paths],
                check_fan(view, 0, FAN_TARGETS, fan, len(FAN)).violations,
                check_disjoint_set_paths(view, XS, YS, sets, 3).violations,
                check_internally_disjoint(view, 0, 119, uv).violations)

    got = reports()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "path_violations", _reference_path_violations)
        mp.setattr(verification, "_family_violations", _reference_groups)
        assert got == reports()
