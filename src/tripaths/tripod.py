"""Solve for tripod structures: three bundles of paths joining a vertex
triple, every path internally disjoint from every other across bundles.

The solver is a two-phase flow heuristic with exchange repair and
seeded restarts.  A phase-A shortfall is an exact max-flow statement,
so it certifies the target infeasible.  The exact packing oracle lives
in ``tripaths.oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._util import mix_seed
from .errors import DuplicateVertices, InsufficientConnectivity, RankOutOfRange
from .flows import Path, StepCounter, k_fan, max_internally_disjoint_paths


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
    phase_a_paths = ([(n1, p) for p in fan.paths if p.vertices[-1] == s1]
                     + [(n2, p) for p in fan.paths if p.vertices[-1] == s2])

    def finish(kept, third_paths):
        named = list(kept) + [(n3, p) for p in third_paths]
        return TripodStructure.from_tagged(omega, named)

    blocked = {w for _, p in phase_a_paths for w in p.interior()}
    sub = view.without(blocked | {pivot_v})
    fam = max_internally_disjoint_paths(sub, bs, bt, limit=k3,
                                        order_seed=order_seed, counter=counter)
    if len(fam.paths) >= k3:
        return finish(phase_a_paths, list(fam.paths[:k3]))

    # exchange repair: free one first-phase path, redo the third bundle,
    # then re-route the freed path through what remains
    for drop in range(len(phase_a_paths)):
        name_d, path_d = phase_a_paths[drop]
        kept = [phase_a_paths[i] for i in range(len(phase_a_paths)) if i != drop]
        blocked_k = {w for _, p in kept for w in p.interior()}
        sub_b = view.without(blocked_k | {pivot_v})
        fam_b = max_internally_disjoint_paths(sub_b, bs, bt, limit=k3,
                                              order_seed=order_seed, counter=counter)
        if len(fam_b.paths) < k3:
            continue
        third = list(fam_b.paths[:k3])
        used_b = {w for p in third for w in p.interior()}
        sink_d = path_d.vertices[-1]
        other = s2 if sink_d == s1 else s1
        sub_r = view.without(blocked_k | used_b | {other})
        # a kept path may BE the direct pivot-sink edge; the rerouted path
        # has no interior blocks against it, so it must skip that edge
        has_direct = any(len(p.vertices) == 2 and p.vertices[-1] == sink_d
                         for _, p in kept)
        fam_r = max_internally_disjoint_paths(
            sub_r, pivot_v, sink_d, limit=2 if has_direct else 1,
            order_seed=order_seed, counter=counter)
        cands = [p for p in fam_r.paths
                 if not (has_direct and len(p.vertices) == 2)]
        if cands:
            kept.append((name_d, cands[0]))
            return finish(kept, third)
    return None


def _check_terminals(view, omega) -> None:
    """Raise unless omega is three distinct vertices of the view."""
    if len(set(omega)) != 3:
        raise DuplicateVertices(f"need three distinct terminals, got {tuple(omega)}")
    for v in omega:
        if not view.contains(v):
            raise RankOutOfRange(f"terminal {v} is not in the view")


def solve_tripod(view, omega, target: StructureTarget, seed: int = 0):
    """Find a tripod structure hitting the target exactly, or report failure.

    Returns TripodStructure on success, else TripodFailure; the failure
    is marked certified when an exact argument rules the target out.
    """
    _check_terminals(view, omega)
    counter = StepCounter()
    certified = False
    restarts = 0
    for r in range(_MAX_RESTARTS + 1):
        restarts = r
        order_seed = None if r == 0 else mix_seed(seed, r)
        for pivot in ("a", "b", "c"):
            if counter.used >= _MAX_STEPS:
                break
            res = _two_phase(view, omega, target, pivot, order_seed, counter)
            if res == _INFEASIBLE:
                certified = True
                break
            if res is not None:
                return res
        if certified or counter.used >= _MAX_STEPS:
            break
    reason = "target certified infeasible" if certified else "search budget exhausted"
    return TripodFailure(reason, counter.used, restarts, certified)
