"""The structure checkers that guard every certificate: each violation
they look for, made once on a built n = 5 structure and its Ω-paths, and
on fans, set-to-set paths and u–v paths of the same graph."""

import re
from dataclasses import replace

import pytest

from tripaths.construct import build_structure
from tripaths.flows import (
    Path,
    PathFamily,
    disjoint_set_paths,
    k_fan,
    max_internally_disjoint_paths,
)
from tripaths.graphs import build, full_view
from tripaths.pairing import pair_structure
from tripaths.perms import Family
from tripaths.tripod import standard_target
from tripaths.verification import (
    check_disjoint_set_paths,
    check_fan,
    check_internally_disjoint,
    check_omega_path_set,
    check_tripod,
)

G5 = build(5, Family.WHEEL)
VIEW = full_view(G5)
TARGET = standard_target(5)
# a one-copy triple whose ab bundle holds a detour and the direct edge
STRUCTURE, _ = build_structure(G5, (14, 32, 56))
OMEGA_PATHS = pair_structure(VIEW, STRUCTURE).paths
FAN_TARGETS = (60, 61, 62, 63)
FAN = k_fan(VIEW, 0, FAN_TARGETS, 4).paths
XS, YS = (0, 1, 2), (100, 101, 102)
SET_PATHS = disjoint_set_paths(VIEW, XS, YS, 3).paths
UV_PATHS = max_internally_disjoint_paths(VIEW, 0, 119).paths


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
    return check_tripod(view, structure, TARGET, exact=True)


def _omega(paths):
    return check_omega_path_set(VIEW, STRUCTURE.omega, paths)


def _fan(paths, targets=FAN_TARGETS):
    return check_fan(VIEW, 0, targets, PathFamily(paths), len(paths))


def _sets(paths):
    return check_disjoint_set_paths(VIEW, XS, YS, PathFamily(paths), 3)


def _uv(paths):
    return check_internally_disjoint(VIEW, 0, 119, PathFamily(paths))


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
    "omega-missing-terminal": (
        lambda: _omega((_to_second_terminal(OMEGA_PATHS[0]),) + OMEGA_PATHS[1:]),
        r"^T\[0\]: misses terminals \[\d+\]$"),
    "omega-shared-vertex": (lambda: _omega((OMEGA_PATHS[0],) + OMEGA_PATHS),
                            r"^vertex \d+ shared by T\[0\] and T\[1\]$"),
    "fan-empty-path": (lambda: _fan((Path(()),) + FAN[1:]), r"^fan\[0\]: empty path$"),
    # two internally disjoint 0–61 paths: they share their end and nothing else
    "fan-repeated-target": (
        lambda: _fan(max_internally_disjoint_paths(VIEW, 0, 61).paths[:2], (61, 62)),
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


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_violation_is_reported_by_its_own_message(name):
    message = MUTATIONS[name][1]
    hits = {other: any(re.match(message, v) for v in check().violations)
            for other, (check, _) in MUTATIONS.items()}
    assert [other for other, hit in hits.items() if hit] == [name]
