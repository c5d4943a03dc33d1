"""Certificates: self-contained JSON records of a constructed structure,
its pairing, and the checks they passed, rebuildable and re-checkable
without any state from the producing run.  The case names and CaseTrace
live here and the checks and bounds in ``verification``, so re-checking
imports no solver module: a solver bug cannot bend the re-check too."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .errors import CertificateError, SchemaError, VersionMismatch
from .graphs import Path, build, full_view
from .perms import MAX_DEGREE, parse_family, parse_permutation, permutation_text, rank
from .verification import (
    OmegaPathSet,
    TripodStructure,
    check_omega_path_set,
    check_tripod,
    formula_value,
    pairing_capacity,
    pi3_upper,
    standard_target,
)

# the case routes ``construct.build_structure`` can take, and its record
CASE_EVEN = "Even"
CASE_1_1 = "OddCase1_1"
CASE_1_2_1 = "OddCase1_2_1"
CASE_1_2_2 = "OddCase1_2_2"
CASE_2 = "OddCase2"
CASE_3_1 = "OddCase3_1"
CASE_3_2 = "OddCase3_2"
CASE_3_3 = "OddCase3_3"
CASE_FALLBACK = "FallbackGeneric"


@dataclass
class CaseTrace:
    case_id: str
    roles: dict = field(default_factory=dict)
    copies: dict = field(default_factory=dict)
    auxiliary: dict = field(default_factory=dict)
    fallback: bool = False
    seed: int = 0


SCHEMA_VERSION = 1
_RANKING = "lehmer-lex"
# the cases an odd n allows, by how many copies hold the terminals
_ODD_CASES = {1: (CASE_1_1, CASE_1_2_1, CASE_1_2_2), 2: (CASE_2,),
              3: (CASE_3_1, CASE_3_2, CASE_3_3)}

@dataclass(frozen=True)
class Certificate:
    n: int
    family: str
    omega_ranks: tuple[int, int, int]
    omega_perms: tuple[str, str, str]
    case: dict
    bundles: dict
    omega_paths: list
    pi3: dict | None
    solver: dict
    checks: list
    schema_version: int = SCHEMA_VERSION


# a certificate's keys are its fields, and its case keys a trace's
_TOP_KEYS = frozenset(f.name for f in fields(Certificate))
_CASE_KEYS = frozenset(f.name for f in fields(CaseTrace))


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _structure_checks(g, structure: TripodStructure, omega_paths) -> list:
    """The four structure rows a certificate records and its verifier
    re-checks, as (name, ok, detail, hard): a failed hard row makes the
    certificate invalid, any other failure a mismatch."""
    view = full_view(g)
    target = standard_target(g.n)
    counts = structure.counts()
    verdict = check_tripod(view, structure, target)
    om_verdict = check_omega_path_set(view, structure.omega, omega_paths)
    return [
        ("structure-valid", verdict.ok, "; ".join(verdict.violations[:3]), True),
        ("bundle-counts-standard", counts == target.as_tuple(),
         f"counts {counts} vs {target.as_tuple()}", False),
        ("omega-paths-valid", om_verdict.ok, "; ".join(om_verdict.violations[:3]), True),
        ("omega-path-count-maximal", len(omega_paths) == pairing_capacity(*counts),
         f"{len(omega_paths)} paths", False),
    ]


def _pi3_claim(g, lower: int) -> dict:
    """The pi3 record: the formula value, the lower bound the Omega paths
    give, and r and the upper bound of the graph."""
    bound = pi3_upper(g)
    return {"formula": formula_value(g.n), "lower": lower, "r": bound.r, "upper": bound.value}


def make_certificate(g, structure: TripodStructure, trace: CaseTrace,
                     omega_set: OmegaPathSet) -> Certificate:
    rows = [{"name": name, "pass": ok}
            for name, ok, _, _ in _structure_checks(g, structure, omega_set.paths)]
    return Certificate(
        n=g.n,
        family=g.family.value,
        omega_ranks=tuple(structure.omega),
        omega_perms=tuple(g.vertex_text(v) for v in structure.omega),
        case=_jsonable(asdict(trace)),
        bundles={
            "ab": [list(p.vertices) for p in structure.bundle_ab],
            "ac": [list(p.vertices) for p in structure.bundle_ac],
            "bc": [list(p.vertices) for p in structure.bundle_bc],
        },
        omega_paths=[list(p.vertices) for p in omega_set.paths],
        pi3=_pi3_claim(g, len(omega_set)),
        solver={"ranking": _RANKING, "seed": trace.seed},
        checks=rows,
    )


def emit(cert: Certificate) -> str:
    payload = _jsonable(asdict(cert))
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def save(cert: Certificate, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(emit(cert))


def _need(payload: dict, key: str):
    if key not in payload:
        raise SchemaError(f"certificate missing key {key!r}")
    return payload[key]


def _ranks(value, what: str) -> list:
    """Vertex ranks: a list of non-negative ints (JSON booleans are not)."""
    if not (isinstance(value, list) and all(type(v) is int and v >= 0 for v in value)):
        raise SchemaError(f"{what} must be a list of non-negative integers")
    return value


def _paths(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list of paths")
    return [_ranks(vs, what) for vs in value]


def load_text(text: str) -> Certificate:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CertificateError("not valid JSON: nested too deeply") from exc
    if not isinstance(payload, dict):
        raise SchemaError("certificate must be a JSON object")
    unknown = set(payload) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown certificate keys: {sorted(unknown)}")
    version = _need(payload, "schema_version")
    if version != SCHEMA_VERSION:
        raise VersionMismatch(
            f"certificate schema {version}, reader supports {SCHEMA_VERSION}")
    n = _need(payload, "n")
    if type(n) is not int or not 4 <= n <= MAX_DEGREE:
        raise SchemaError(f"n must be an integer in 4..{MAX_DEGREE}, got {n!r}")
    family = _need(payload, "family")
    try:
        parse_family(family)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    case = _need(payload, "case")
    if not isinstance(case, dict):
        raise SchemaError("case must be an object")
    unknown = set(case) - _CASE_KEYS
    if unknown:
        raise SchemaError(f"unknown case keys: {sorted(unknown)}")
    missing = _CASE_KEYS - set(case)
    if missing:
        raise SchemaError(f"case missing keys: {sorted(missing)}")
    omega_ranks = _ranks(_need(payload, "omega_ranks"), "omega_ranks")
    omega_perms = _need(payload, "omega_perms")
    if (len(omega_ranks) != 3 or not isinstance(omega_perms, list)
            or len(omega_perms) != 3):
        raise SchemaError("omega entries must list exactly three terminals")
    if not all(type(text) is str for text in omega_perms):
        raise SchemaError("omega_perms must be a list of permutation strings")
    bundles = _need(payload, "bundles")
    if not isinstance(bundles, dict) or set(bundles) != {"ab", "ac", "bc"}:
        raise SchemaError("bundles must carry exactly ab, ac, bc")
    bundles = {tag: _paths(paths, f"bundles.{tag}") for tag, paths in bundles.items()}
    pi3 = _need(payload, "pi3")
    if pi3 is not None and not (isinstance(pi3, dict) and all(
            pi3.get(k) is None or type(pi3[k]) is int for k in ("lower", "upper"))):
        raise SchemaError("pi3 must be null or an object with integer bounds")
    solver = _need(payload, "solver")
    if not isinstance(solver, dict):
        raise SchemaError("solver must be an object")
    checks = _need(payload, "checks")
    if not isinstance(checks, list) or not all(isinstance(r, dict) for r in checks):
        raise SchemaError("checks must be a list of objects")
    return Certificate(
        n=n,
        family=family,
        omega_ranks=tuple(omega_ranks),
        omega_perms=tuple(omega_perms),
        case=case,
        bundles=bundles,
        omega_paths=_paths(_need(payload, "omega_paths"), "omega_paths"),
        pi3=pi3,
        solver=solver,
        checks=checks,
    )


def load(path: str) -> Certificate:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CertificateError(f"not UTF-8 text: {exc}") from exc
    return load_text(text)


def _structure_from(cert: Certificate) -> TripodStructure:
    return TripodStructure(
        tuple(cert.omega_ranks),
        tuple(Path(tuple(vs)) for vs in cert.bundles["ab"]),
        tuple(Path(tuple(vs)) for vs in cert.bundles["ac"]),
        tuple(Path(tuple(vs)) for vs in cert.bundles["bc"]),
    )


def _exact(claim, value) -> bool:
    """JSON equality that tells booleans and floats from integers."""
    if isinstance(value, dict):
        return (isinstance(claim, dict) and claim.keys() == value.keys()
                and all(_exact(claim[k], v) for k, v in value.items()))
    return type(claim) is type(value) and claim == value


def _case_fits(case_id, n: int, spread: int | None) -> bool:
    """Whether a recorded case name can describe terminals spread over
    that many copies: the generic fallback fits any layout, Even exactly
    the even n, and each odd case its own number of copies."""
    if type(case_id) is not str or spread is None:
        return False
    if case_id == CASE_FALLBACK:
        return True
    if n % 2 == 0:
        return case_id == CASE_EVEN
    return case_id in _ODD_CASES.get(spread, ())


def verify_certificate(cert: Certificate) -> tuple[str, list]:
    """Re-check a certificate from scratch.

    Returns (status, rows): status "ok" when everything holds, "invalid"
    when recorded paths fail structural checks, "mismatch" when the
    structure is sound but a recorded claim does not reproduce.
    """
    rows: list[tuple[str, bool, str]] = []
    invalid = False
    mismatch = False

    def add(name, ok, detail="", hard=False):
        nonlocal invalid, mismatch
        rows.append((name, bool(ok), detail))
        if not ok:
            if hard:
                invalid = True
            else:
                mismatch = True

    try:
        family = parse_family(cert.family)
        g = build(cert.n, family)
    except Exception as exc:
        return "invalid", [("graph-rebuild", False, str(exc))]
    perms_ok = True
    for v, text in zip(cert.omega_ranks, cert.omega_perms):
        try:
            sigma = parse_permutation(text, g.n)
        except Exception:
            perms_ok = False
            break
        if rank(sigma) != v or permutation_text(g.perm(v)) != text:
            perms_ok = False
            break
    add("omega-ranks-match-perms", perms_ok, hard=True)

    try:
        structure = _structure_from(cert)
    except Exception as exc:
        return "invalid", rows + [("bundle-shapes", False, str(exc))]
    omega_paths = tuple(Path(tuple(vs)) for vs in cert.omega_paths)
    for name, ok, detail, hard in _structure_checks(g, structure, omega_paths):
        add(name, ok, detail, hard)

    def claim(name, recorded, derived):
        # nothing derived (None) matches no record
        add(name, derived is not None and _exact(recorded, derived),
            f"recorded {recorded!r}, derived {derived!r}")

    # the case names the terminals a, b, c in omega order, the copy each
    # lies in, and a route that fits how they spread over the copies; it
    # is a fallback exactly when that route is the generic solver.  The
    # solver repeats the build seed and names the one ranking there is.
    roles = dict(zip("abc", cert.omega_ranks))
    in_range = all(v < g.vertex_count for v in cert.omega_ranks)
    claim("case-roles", cert.case["roles"], roles)
    claim("case-copies", cert.case["copies"],
          {r: g.copy_id[v] for r, v in roles.items()} if in_range else None)
    case_id = cert.case["case_id"]
    spread = len({g.copy_id[v] for v in cert.omega_ranks}) if in_range else None
    add("case-id", _case_fits(case_id, g.n, spread),
        f"recorded {case_id!r} for terminals in {spread} copies at n={g.n}")
    claim("case-fallback", cert.case["fallback"], case_id == CASE_FALLBACK)
    seed = cert.case["seed"]
    claim("solver-seed", cert.solver.get("seed"), seed if type(seed) is int else None)
    claim("solver-ranking", cert.solver.get("ranking"), _RANKING)

    if cert.pi3 is not None:
        # every pi3 field is derived again: lower from the Omega paths
        # just re-checked, r and upper from the rebuilt graph
        for key, value in _pi3_claim(g, len(omega_paths)).items():
            claim(f"pi3-{key}", cert.pi3.get(key), value)

    recorded = all(row.get("pass") for row in cert.checks)
    add("recorded-checks-clean", recorded)

    if invalid:
        return "invalid", rows
    if mismatch:
        return "mismatch", rows
    return "ok", rows
