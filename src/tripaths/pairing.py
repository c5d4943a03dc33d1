"""Pairing bundle paths into paths through all three terminals, and the
constructive lower bound over sampled triples.  The pairing capacity and
the upper bound live in ``verification``."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb

from ._util import mix_seed
from .construct import build_structure
from .errors import ConstructionFailed, InvalidStructure
from .graphs import CayleyGraph, Path, full_view
from .perms import Family
from .verification import (
    OmegaPathSet,
    StructureTarget,
    TripodStructure,
    check_omega_path_set,
    check_tripod,
    pairing_capacity,
)
# unused here: bench/run.py:348 imports these two from pairing
from .verification import formula_value, pi3_upper


def optimal_split(x: int, y: int, z: int) -> tuple[int, int, int]:
    """Lexicographically smallest (mu_a, mu_b, mu_c) achieving the capacity:
    mu_a pairs ab+ac, mu_b pairs ab+bc, mu_c pairs ac+bc.  Raises
    InvalidStructure if no split reaches ``pairing_capacity``, so a wrong
    capacity never reaches a certificate."""
    best = pairing_capacity(x, y, z)
    for mu_a in range(best + 1):
        for mu_b in range(best - mu_a + 1):
            mu_c = best - mu_a - mu_b
            if mu_a + mu_b <= x and mu_a + mu_c <= y and mu_b + mu_c <= z:
                return (mu_a, mu_b, mu_c)
    raise InvalidStructure(f"no split of bundles {(x, y, z)} pairs {best} paths")


def pair_structure(view, structure: TripodStructure) -> OmegaPathSet:
    """Concatenate bundle paths at shared terminals, lowest indices first.

    This is the validity gate of the package: the structure gets its one
    full check here, and the paired paths another, and either failing
    raises InvalidStructure rather than reaching a certificate.
    """
    counts = structure.counts()
    verdict = check_tripod(view, structure, StructureTarget(*counts))
    if not verdict.ok:
        raise InvalidStructure("; ".join(verdict.violations[:4]))
    mu_a, mu_b, mu_c = optimal_split(*counts)
    ab, ac, bc = structure.bundle_ab, structure.bundle_ac, structure.bundle_bc
    out: list[Path] = []
    for i in range(mu_a):
        # b..a + a..c
        out.append(Path(ab[i].reverse().vertices + ac[i].vertices[1:]))
    for i in range(mu_b):
        # a..b + b..c
        out.append(Path(ab[mu_a + i].vertices + bc[i].vertices[1:]))
    for i in range(mu_c):
        # a..c + c..b
        out.append(Path(ac[mu_a + i].vertices + bc[mu_b + i].reverse().vertices[1:]))
    result = OmegaPathSet(structure.omega, tuple(out))
    verdict = check_omega_path_set(view, structure.omega, result.paths)
    if not verdict.ok:
        raise InvalidStructure("; ".join(verdict.violations[:4]))
    return result


# ------------------------------------------------------------- lower bound

@dataclass
class LowerBoundReport:
    value: int
    evaluated: int
    case_counts: dict = field(default_factory=dict)
    fallback_count: int = 0
    failures: list = field(default_factory=list)
    worst_triple: tuple[int, int, int] | None = None

    def merge(self, other: "LowerBoundReport") -> None:
        """Fold in the report of the triples that follow this one's; the
        result equals one report over both runs of triples."""
        if other.worst_triple is not None and (
                self.worst_triple is None or other.value < self.value):
            self.value, self.worst_triple = other.value, other.worst_triple
        self.evaluated += other.evaluated
        for case_id, count in other.case_counts.items():
            self.case_counts[case_id] = self.case_counts.get(case_id, 0) + count
        self.fallback_count += other.fallback_count
        self.failures.extend(other.failures)


def sample_triples(g: CayleyGraph, count: int, seed: int) -> list[tuple[int, int, int]]:
    """Deterministic sample stratified by copy multiplicity: thirds with all
    terminals in one copy, split two/one, and three distinct copies."""
    quotas = [count // 3 + (1 if i < count % 3 else 0) for i in range(3)]
    copies = sorted(g.copy_members)
    size = len(g.copy_members[copies[0]])
    k = len(copies)
    exist = (k * comb(size, 3), k * (k - 1) * comb(size, 2) * size, comb(k, 3) * size ** 3)
    for name, quota, total in zip(("one-copy", "two-copy", "three-copy"), quotas, exist):
        if quota > total:
            raise ValueError(f"{count} samples ask for {quota} {name} triples; "
                             f"n={g.n} has only {total}")
    rng = random.Random(mix_seed(seed, g.n, 1 if g.family is Family.WHEEL else 0))
    out: list[tuple[int, int, int]] = []
    seen = set()

    def push(tri):
        tri = tuple(sorted(tri))
        if tri not in seen:
            seen.add(tri)
            out.append(tri)
            return True
        return False

    made = 0
    while made < quotas[0]:
        c = rng.choice(copies)
        made += push(rng.sample(g.copy_members[c], 3))
    made = 0
    while made < quotas[1]:
        c, d = rng.sample(copies, 2)
        tri = rng.sample(g.copy_members[c], 2) + [rng.choice(g.copy_members[d])]
        made += push(tri)
    made = 0
    while made < quotas[2]:
        cs = rng.sample(copies, 3)
        made += push([rng.choice(g.copy_members[c]) for c in cs])
    return out


def pi3_lower(g: CayleyGraph, triples, seed: int = 0) -> LowerBoundReport:
    """Constructive lower bound: build a structure and pair it for every
    triple; the bound is the worst pairing count seen.  Triples whose
    structure cannot be built or is rejected are recorded as failures."""
    view = full_view(g)
    report = LowerBoundReport(value=0, evaluated=0)
    best_min = None
    for tri in triples:
        report.evaluated += 1
        try:
            structure, trace = build_structure(g, tri, seed=mix_seed(seed, *tri))
            omega_paths = pair_structure(view, structure)
        except (ConstructionFailed, InvalidStructure) as exc:
            report.failures.append((tri, str(exc)))
            continue
        got = len(omega_paths)
        report.case_counts[trace.case_id] = report.case_counts.get(trace.case_id, 0) + 1
        if trace.fallback:
            report.fallback_count += 1
        if best_min is None or got < best_min:
            best_min = got
            report.worst_triple = tri
    report.value = best_min if best_min is not None else 0
    return report
