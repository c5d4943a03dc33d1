"""Solve for tripod structures: three bundles of paths joining a vertex
triple, every path internally disjoint from every other across bundles.

The solver is a two-phase flow heuristic with exchange repair and
seeded restarts.  One loop tries the third bundle beside all of phase A
first, then with each phase-A path freed in turn.  A phase-A shortfall
is an exact max-flow statement, so it certifies the target infeasible.
The exact packing oracle lives in ``tripaths.oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._util import mix_seed
from .errors import InsufficientConnectivity
from .flows import StepCounter, k_fan, max_internally_disjoint_paths
from .verification import StructureTarget, TripodStructure, check_terminals
# unused here: bench/run.py:332 imports it from tripod
from .verification import standard_target


@dataclass(frozen=True)
class TripodFailure:
    reason: str
    steps_used: int
    restarts_used: int
    certified_infeasible: bool = False


_INFEASIBLE = "infeasible"
_MAX_STEPS = 1_000_000
_MAX_RESTARTS = 32


def _phase_plan(omega, target, pivot):
    a, b, c = omega
    if pivot == "a":
        return (a, (b, target.ab, "ab"), (c, target.ac, "ac"), (b, c, target.bc, "bc"))
    if pivot == "b":
        return (b, (a, target.ab, "ab"), (c, target.bc, "bc"), (a, c, target.ac, "ac"))
    return (c, (a, target.ac, "ac"), (b, target.bc, "bc"), (a, b, target.ab, "ab"))


def _two_phase(view, omega, target, pivot, order_seed, counter):
    pivot_v, (s1, k1, n1), (s2, k2, n2), (bs, bt, k3, n3) = _phase_plan(omega, target, pivot)
    # phase A: a fan of k1 + k2 paths from the pivot, k1 to s1 and k2 to s2
    try:
        fan = k_fan(view, pivot_v, {s1: k1, s2: k2}, k1 + k2, order_seed, counter)
    except InsufficientConnectivity:
        # the flow value is exact, so a shortfall rules the target out entirely
        return _INFEASIBLE
    phase_a_paths = ([(n1, p) for p in fan if p.vertices[-1] == s1]
                     + [(n2, p) for p in fan if p.vertices[-1] == s2])
    # drop None is the plain attempt; exchange repair frees path `drop`,
    # redoes the third bundle, then re-routes the freed path around both
    for drop in (None, *range(len(phase_a_paths))):
        kept = [t for i, t in enumerate(phase_a_paths) if i != drop]
        blocked = {w for _, p in kept for w in p.interior()}
        fam = max_internally_disjoint_paths(view.without(blocked | {pivot_v}), bs, bt, limit=k3,
                                            order_seed=order_seed, counter=counter)
        if len(fam) < k3:
            continue
        third = [(n3, p) for p in fam]
        if drop is not None:
            name_d, path_d = phase_a_paths[drop]
            used = {w for _, p in third for w in p.interior()}
            sink_d = path_d.vertices[-1]
            other = s2 if sink_d == s1 else s1
            # a kept path may BE the direct pivot-sink edge; the rerouted path
            # has no interior blocks against it, so it must skip that edge
            has_direct = any(len(p.vertices) == 2 and p.vertices[-1] == sink_d
                             for _, p in kept)
            fam_r = max_internally_disjoint_paths(
                view.without(blocked | used | {other}), pivot_v, sink_d,
                limit=2 if has_direct else 1, order_seed=order_seed, counter=counter)
            cands = [p for p in fam_r
                     if not (has_direct and len(p.vertices) == 2)]
            if not cands:
                continue
            kept.append((name_d, cands[0]))
        return TripodStructure.from_tagged(omega, kept + third)
    return None


def solve_tripod(view, omega, target: StructureTarget, seed: int = 0):
    """Find a tripod structure hitting the target exactly, or report failure.

    Returns TripodStructure on success, else TripodFailure; the failure
    is marked certified when an exact argument rules the target out.
    """
    check_terminals(view, omega)
    counter = StepCounter()
    for r in range(_MAX_RESTARTS + 1):
        order_seed = None if r == 0 else mix_seed(seed, r)
        for pivot in ("a", "b", "c"):
            res = _two_phase(view, omega, target, pivot, order_seed, counter)
            if res == _INFEASIBLE:
                return TripodFailure("target certified infeasible", counter.used, r, True)
            if res is not None:
                return res
            if counter.used >= _MAX_STEPS:
                return TripodFailure("search budget exhausted", counter.used, r)
    return TripodFailure("search budget exhausted", counter.used, _MAX_RESTARTS)
