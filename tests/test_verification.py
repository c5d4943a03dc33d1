"""The structure checkers that guard every certificate: each violation
they look for, made once on a built n = 5 structure and its Ω-paths."""

import re
from dataclasses import replace

import pytest

from tripaths.construct import build_structure
from tripaths.flows import Path
from tripaths.graphs import build, full_view
from tripaths.pairing import pair_structure
from tripaths.perms import Family
from tripaths.tripod import standard_target
from tripaths.verification import check_omega_path_set, check_tripod

G5 = build(5, Family.WHEEL)
VIEW = full_view(G5)
TARGET = standard_target(5)
# a one-copy triple whose ab bundle holds a detour and the direct edge
STRUCTURE, _ = build_structure(G5, (14, 32, 56))
OMEGA_PATHS = pair_structure(VIEW, STRUCTURE).paths


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


MUTATIONS = {
    "empty-path": (lambda: _tripod(_with_ab(Path(()), _direct())),
                   r"^ab\[0\]: empty path$"),
    "outside-view": (lambda: _tripod(STRUCTURE, VIEW.without({_detour().interior()[0]})),
                     r"^ab\[\d\]: vertex \d+ outside the view$"),
    "wrong-endpoints": (lambda: _tripod(_with_ab(_detour().reverse(), _direct())),
                        r"^ab\[0\]: endpoints 56,32 want 32,56$"),
    "shared-interior": (lambda: _tripod(_with_ab(_detour(), _detour())),
                        r"^vertex \d+ interior to both ab\[0\] and ab\[1\]$"),
    "shared-edge": (lambda: _tripod(_with_ab(_direct(), _direct())),
                    r"^edge \(32, 56\) shared by ab\[0\] and ab\[1\]$"),
    "omega-missing-terminal": (
        lambda: _omega((_to_second_terminal(OMEGA_PATHS[0]),) + OMEGA_PATHS[1:]),
        r"^T\[0\]: misses terminals \[\d+\]$"),
    "omega-shared-vertex": (lambda: _omega((OMEGA_PATHS[0],) + OMEGA_PATHS),
                            r"^vertex \d+ shared by T\[0\] and T\[1\]$"),
}


def test_unmutated_structure_passes():
    assert STRUCTURE.omega == (32, 56, 14)
    assert _tripod(STRUCTURE).violations == ()
    assert _omega(OMEGA_PATHS).violations == ()


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_violation_is_reported_by_its_own_message(name):
    message = MUTATIONS[name][1]
    hits = {other: any(re.match(message, v) for v in check().violations)
            for other, (check, _) in MUTATIONS.items()}
    assert [other for other, hit in hits.items() if hit] == [name]
