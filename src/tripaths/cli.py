"""Command line interface.

Exit codes: 0 success, 2 usage error, 3 construction failure,
4 verification failure, 5 claim mismatch.

Solver modules are imported inside the commands that solve, so that
``verify`` and ``gen`` load the checker side only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import certify
from .errors import (
    CertificateError,
    ConstructionFailed,
    DegreeOutOfRange,
    DegreeTooSmall,
    InvalidStructure,
    TripathsError,
)
from .graphs import build, full_view, to_dot, to_edgelist
from .perms import parse_family, parse_permutation, rank
from .verification import formula_value, pairing_capacity, pi3_upper, standard_target

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3
EXIT_VERIFICATION = 4
EXIT_MISMATCH = 5

BANNER = "=" * 70


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _build_graph(n: int, family_text: str):
    return build(n, parse_family(family_text))


def _report_header(title: str, argv: list[str]) -> list[str]:
    return [
        f"# generated: tripaths {' '.join(argv)}",
        BANNER,
        title,
        BANNER,
    ]


def _write_report(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _write_sidecar(payload: dict, report_path: str) -> None:
    """Structured twin of a text report, for machine diffing."""
    with open(report_path + ".json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_path(default_name: str, explicit: str | None) -> str | None:
    if explicit:
        return explicit
    outdir = os.environ.get("TRIPATHS_OUTDIR")
    if outdir:
        return os.path.join(outdir, default_name)
    return None


# ------------------------------------------------------------------ gen

def _cmd_gen(args, argv) -> int:
    try:
        g = _build_graph(args.n, args.family)
    except (DegreeTooSmall, DegreeOutOfRange, ValueError) as exc:
        return _fail_usage(str(exc))
    text = to_dot(g) if args.format == "dot" else to_edgelist(g)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.format} for n={g.n} {g.family.value} "
              f"({g.vertex_count} vertices) to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -------------------------------------------------------------- structure

def _parse_omega(g, text: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != 3:
        raise ValueError("--omega needs three permutations separated by ';'")
    ranks = tuple(rank(parse_permutation(p, g.n)) for p in parts)
    if len(set(ranks)) != 3:
        raise ValueError("terminals must be distinct")
    return ranks


def _cmd_structure(args, argv) -> int:
    from .construct import build_structure
    from .pairing import pair_structure, sample_triples

    try:
        g = _build_graph(args.n, "wheel")
    except (DegreeTooSmall, DegreeOutOfRange, ValueError) as exc:
        return _fail_usage(str(exc))
    try:
        if args.omega:
            omega = _parse_omega(g, args.omega)
        elif args.random:
            omega = sample_triples(g, 1, args.seed)[0]
        else:
            return _fail_usage("pass --omega or --random")
    except (TripathsError, ValueError) as exc:
        return _fail_usage(str(exc))

    try:
        structure, trace = build_structure(g, omega, seed=args.seed)
    except ConstructionFailed as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    if args.strict and trace.fallback:
        print("strict mode: construction fell back to the generic solver",
              file=sys.stderr)
        return EXIT_CONSTRUCTION
    try:
        omega_set = pair_structure(full_view(g), structure)
    except InvalidStructure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    counts = structure.counts()
    target = standard_target(g.n)
    cert = certify.make_certificate(g, structure, trace, omega_set)

    lines = _report_header(f"structure  n={g.n}  family={g.family.value}", argv)
    lines.append("terminals  : " + "  ".join(g.vertex_text(v) for v in structure.omega))
    lines.append(f"ranks      : {structure.omega}")
    lines.append(f"case       : {trace.case_id:<16} fallback: "
                 f"{'yes' if trace.fallback else 'no'}")
    lines.append(f"bundles    : ab={counts[0]} ac={counts[1]} bc={counts[2]}"
                 f"   target {target.as_tuple()}")
    lines.append(f"omega paths: {len(omega_set)}   "
                 f"(pairing capacity {pairing_capacity(*counts)})")
    for row in cert.checks:
        mark = "PASS" if row["pass"] else "FAIL"
        lines.append(f"  {row['name']:<28} {mark}")
    cert_path = _out_path(f"structure-n{g.n}-{'-'.join(map(str, structure.omega))}.json",
                          args.certificate)
    if cert_path:
        certify.save(cert, cert_path)
        lines.append(f"certificate: {cert_path}")
    _write_report(lines, None)
    if not all(row["pass"] for row in cert.checks):
        return EXIT_VERIFICATION
    return EXIT_OK


# ------------------------------------------------------------------ pi3

_WORKER_GRAPH = None


def _pi3_worker_init(n: int) -> None:
    global _WORKER_GRAPH
    _WORKER_GRAPH = _build_graph(n, "wheel")


def _pi3_worker(payload):
    from .pairing import pi3_lower

    chunk, seed = payload
    return pi3_lower(_WORKER_GRAPH, chunk, seed=seed)


def _cmd_pi3(args, argv) -> int:
    from .pairing import LowerBoundReport, pi3_lower, sample_triples

    try:
        g = _build_graph(args.n, "wheel")
    except (DegreeTooSmall, DegreeOutOfRange, ValueError) as exc:
        return _fail_usage(str(exc))
    if args.jobs < 1:
        return _fail_usage("--jobs must be at least 1")
    if args.exhaustive:
        if args.n != 4:
            return _fail_usage("--exhaustive is sized for n=4 only")
        triples = list(itertools.combinations(range(g.vertex_count), 3))
    else:
        if args.samples <= 0:
            return _fail_usage("--samples must be positive")
        try:
            triples = sample_triples(g, args.samples, args.seed)
        except ValueError as exc:
            return _fail_usage(str(exc))

    upper = pi3_upper(g)
    expected = formula_value(g.n)

    if args.jobs > 1:
        # imported here, so commands that start no pool never load
        # multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # contiguous chunks merged in order report what a serial run does
        size = -(-len(triples) // args.jobs)
        chunks = [triples[i:i + size] for i in range(0, len(triples), size)]
        rep = LowerBoundReport(value=0, evaluated=0)
        # the pool starts all its workers up front, so ask for no more than
        # there are chunks or CPUs
        with ProcessPoolExecutor(
                max_workers=min(len(chunks), os.cpu_count() or 1),
                initializer=_pi3_worker_init,
                initargs=(args.n,)) as pool:
            for part in pool.map(_pi3_worker, [(c, args.seed) for c in chunks]):
                rep.merge(part)
    else:
        rep = pi3_lower(g, triples, seed=args.seed)

    match = (not rep.failures and rep.value >= expected and upper.value == expected)
    verdict = "MATCH" if match else "MISMATCH"
    lines = _report_header(f"pi3  n={g.n}  family={g.family.value}", argv)
    lines.append(f"triples    : {rep.evaluated} "
                 f"({'exhaustive' if args.exhaustive else 'sampled, seed ' + str(args.seed)})")
    lines.append(f"lower bound: {rep.value}   (worst triple {rep.worst_triple})")
    lines.append(f"upper bound: {upper.value}   "
                 f"(connectivity {upper.connectivity}, r={upper.r})")
    lines.append(f"formula    : {expected} = floor((6n-9)/4)")
    lines.append(f"fallbacks  : {rep.fallback_count}")
    for case_id in sorted(rep.case_counts):
        lines.append(f"  {case_id:<20} {rep.case_counts[case_id]}")
    if rep.failures:
        lines.append(f"FAILURES   : {len(rep.failures)} (first: {rep.failures[0]})")
    lines.append(f"verdict    : {verdict} "
                 f"(lower {rep.value} / formula {expected} / upper {upper.value})")
    report_path = _out_path(f"pi3-n{g.n}.txt", args.report)
    sidecar = {
        "command": "pi3", "n": g.n, "family": g.family.value,
        "mode": "exhaustive" if args.exhaustive else "sampled",
        "seed": args.seed, "triples": rep.evaluated,
        "lower": rep.value, "upper": upper.value, "formula": expected,
        "r": upper.r, "connectivity": upper.connectivity,
        "worst_triple": list(rep.worst_triple) if rep.worst_triple else None,
        "fallbacks": rep.fallback_count, "case_counts": rep.case_counts,
        "failures": [list(map(str, f)) for f in rep.failures],
        "verdict": verdict,
    }
    _write_report(lines, report_path)
    if report_path:
        _write_sidecar(sidecar, report_path)
    if rep.failures:
        return EXIT_CONSTRUCTION
    return EXIT_OK if match else EXIT_MISMATCH


# ---------------------------------------------------------------- lemmas

def _cmd_lemmas(args, argv) -> int:
    from .lemmas import run_lemma_suite

    if args.n not in (4, 5):
        return _fail_usage("the invariant suite is sized for n in {4, 5}")
    rows = run_lemma_suite(args.n, inject_fault=args.inject_fault)
    lines = _report_header(f"lemmas  n={args.n}", argv)
    for row in rows:
        mark = "PASS" if row.passed else "FAIL"
        detail = f"  ({row.detail})" if row.detail else ""
        lines.append(f"  {row.name:<40} {mark}{detail}")
    ok = all(r.passed for r in rows)
    lines.append(f"suite      : {'PASS' if ok else 'FAIL'} "
                 f"({sum(r.passed for r in rows)}/{len(rows)} rows)")
    report_path = _out_path(f"lemmas-n{args.n}.txt", args.report)
    _write_report(lines, report_path)
    if report_path:
        _write_sidecar({
            "command": "lemmas", "n": args.n,
            "inject_fault": args.inject_fault,
            "rows": [{"name": r.name, "pass": r.passed, "detail": r.detail}
                     for r in rows],
            "suite_pass": ok,
        }, report_path)
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------- verify

def _cmd_verify(args, argv) -> int:
    try:
        cert = certify.load(args.certificate)
    except CertificateError as exc:
        # schema and version problems are usage-grade: the file is not a
        # certificate this tool can interpret
        return _fail_usage(f"certificate rejected: {exc}")
    except OSError as exc:
        return _fail_usage(str(exc))
    status, rows = certify.verify_certificate(cert)
    lines = _report_header(f"verify  {args.certificate}", argv)
    for name, ok, detail in rows:
        mark = "PASS" if ok else "FAIL"
        extra = f"  ({detail})" if detail and not ok else ""
        lines.append(f"  {name:<28} {mark}{extra}")
    lines.append(f"status     : {status}")
    _write_report(lines, None)
    if status == "invalid":
        return EXIT_VERIFICATION
    if status == "mismatch":
        return EXIT_MISMATCH
    return EXIT_OK


# ----------------------------------------------------------------- main

def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tripaths",
        description="Cayley graphs from star-plus-adjacent generator sets: "
                    "construction, disjoint path structures, packing bounds.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a graph as DOT or an edge list")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", default="wheel", choices=("wheel", "bss"))
    p.add_argument("--format", default="edgelist", choices=("dot", "edgelist"))
    p.add_argument("--output")

    p = sub.add_parser("structure", help="build and certify one structure")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega", help="three permutations, ';'-separated")
    p.add_argument("--random", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--certificate", help="write the JSON certificate here")
    p.add_argument("--strict", action="store_true",
                   help="fail when the generic solver had to stand in")

    p = sub.add_parser("pi3", help="evaluate the packing bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--report", help="write the text report here")

    p = sub.add_parser("lemmas", help="run the structural invariant suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--inject-fault", action="store_true",
                   help="drop one cross edge from the checked set")
    p.add_argument("--report")

    p = sub.add_parser("verify", help="re-check a certificate file")
    p.add_argument("certificate")
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else EXIT_OK
    handlers = {
        "gen": _cmd_gen,
        "structure": _cmd_structure,
        "pi3": _cmd_pi3,
        "lemmas": _cmd_lemmas,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args, argv)
    except OSError as exc:  # an output file that cannot be written
        return _fail_usage(f"cannot write output: {exc}")


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
