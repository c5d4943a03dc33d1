"""tripaths benchmark: certified-triple throughput and tail, and cold CLI
certify-then-verify round trips.

    python3 bench/run.py --workload odd-n5 --seed 1 --seconds 20 --trace 0

Run it from anywhere; it finds ``src/`` and ``tests/golden/`` next to
``bench/``.  Every workload is a closed loop with one client: one
operation at a time, each starting after the previous one finishes, in
one process (``cli-certify`` waits on one child process at a time).

Workloads (the seed picks the inputs; the program sees only the triples
``sample_triples(g, N, seed)`` returns, interleaved across its three
copy-multiplicity strata so a time-bounded run sees every stratum):

* ``odd-n5``, ``odd-n7``, ``even-n6``: one op is one
  ``pi3_lower(g, [triple], seed=seed)`` call, the code path of
  ``tripaths pi3``.  An op is correct when it evaluates the triple,
  records no failure and returns exactly ``formula_value(n)``.
* ``cli-certify``: one op is ``structure --n 5 --random --seed s
  --certificate f`` followed by ``verify f``, each a cold child
  interpreter; both must exit 0.  Before the loop the n = 4 and n = 5
  golden triples are rebuilt through the CLI and compared byte for byte
  with ``tests/golden/``.

``--trace 0`` measures for ``--seconds`` (and at least ``min_ops`` ops,
so p90 has ten samples beyond it) and reports the end-to-end metrics;
``ops_per_s`` is ops over the summed op time.  ``--trace 1`` runs a
fixed prefix of the inputs, each op once untraced and once traced in
alternating order, and reports the per-layer metrics from the spans of
``tracer.py``; with a fixed prefix every count repeats exactly.
``trace.overhead_ratio`` is traced over untraced ops per second on the
same ops.

Every run also rebuilds its first ``capture`` inputs untimed and records
the case mix and a sha256 digest of every bundle path and Omega path
(certificate bytes for ``cli-certify``), so two runs of one seed must
agree on both.  Sweeps re-check one of those structures independently
(``check_tripod`` plus ``check_omega_path_set``) after every op and
report the median as ``verify_ms_p50``; ``cli-certify`` times the
``verify`` child.

End-to-end times are given at reference host speed: ``reference.py``
samples a fixed kernel between ops and scales each timed interval by the
host speed measured around it (set-up, which runs in child processes,
by the run's mean host speed), which takes out most of the drift of a
shared machine.  The harness and its children are pinned to one CPU so
the samples describe the CPU the work ran on.  The record keeps the raw
figures as ``raw_metrics`` next to the kernel samples.  Per-layer
figures are raw.

The baseline uses seed 1; seed 1001 is held out for confirming claims.

Output: human-readable lines, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record goes to
``bench/out/<workload>-s<seed>-t<trace>.json``; traced runs also write
the spans (``.spans.jsonl``) and the per-layer table (``.layers.txt``).
Exit status: 0 when every output was correct, 1 when some op failed or
a check missed, 2 when the program or its goldens are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from reference import SpeedGauge, kernel_gauge, spawn_gauge
from tracer import Tracer, dump_spans, layer_metrics, load_spans, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = HERE / "out"

# Cold set-ups timed per run; setup_s is their median.
PROBES = 3
# An untraced loop stops adding ops past this, so a slow program still
# exits well inside three minutes.
HARD_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Sweep:
    n: int
    sample: int     # triples drawn per run; the loop cycles if it runs out
    min_ops: int    # ops an untraced run completes at least
    capture: int    # leading triples rebuilt untimed for digest, mix, verify time
    trace_ops: int  # triples run untraced and traced with --trace 1


SWEEPS = {
    "odd-n5": Sweep(n=5, sample=9000, min_ops=100, capture=300, trace_ops=1500),
    "odd-n7": Sweep(n=7, sample=600, min_ops=100, capture=30, trace_ops=30),
    "even-n6": Sweep(n=6, sample=1500, min_ops=100, capture=30, trace_ops=150),
}


@dataclass(frozen=True)
class Cli:
    n: int = 5
    min_ops: int = 5
    capture: int = 3
    trace_ops: int = 3


CLI = Cli()
WORKLOADS = (*SWEEPS, "cli-certify")

E2E_UNITS = {
    "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "verify_ms_p50": "ms",
}


class Report:
    """Ops attempted and failed, plus checks outside the timed ops."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problem(what)

    def problem(self, what: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(what)
        else:
            self.problems[-1] = f"... and more (last: {what})"

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def p50(xs):
    return statistics.median(xs)


def p90(xs):
    """90th percentile, interpolating between order statistics, so that
    with a dozen samples it does not collapse onto the single largest."""
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TRIPATHS_OUTDIR", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(cmd: list[str], log: Path) -> tuple[int, tuple[float, float], float, str]:
    """Run one child to completion; (exit code, (start, end), peak RSS MB,
    output).

    A child still running after CHILD_TIMEOUT_S is killed and counts as
    failed; an interrupt kills and reaps the child before propagating.
    """
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                stdout=fh, stderr=subprocess.STDOUT)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, (t0, t1), usage.ru_maxrss / 1024.0, log.read_text()


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1][:200] if lines else ""


def setup_probes(module: str, n: int, count: int, seed: int, tmp: Path,
                 report: Report, gauge: SpeedGauge) -> list[dict]:
    """Time PROBES cold set-ups, each in a fresh interpreter, sampling
    cold-start speed before and after each."""
    out = []
    gauge.sample()
    for i in range(PROBES):
        code, _, _, text = run_child(
            [sys.executable, str(HERE / "setup_probe.py"), "--module", module,
             "--n", str(n), "--count", str(count), "--seed", str(seed)],
            tmp / f"probe-{i}.log")
        gauge.sample()
        if code != 0:
            report.problem(f"setup probe exited {code}: {last_line(text)}")
            continue
        out.append(json.loads(text.strip().splitlines()[-1]))
    if not out:
        raise SystemExit("error: no setup probe succeeded")
    return out


def end_to_end(ops: list[float], verifies: list[float], rss_mb: float,
               setups: list[float]) -> dict[str, float]:
    """End-to-end figures from op, verify and set-up durations in seconds."""
    return {
        "ops_per_s": len(ops) / sum(ops),
        "op_ms_p50": p50(ops) * 1e3,
        "op_ms_p90": p90(ops) * 1e3,
        "verify_ms_p50": p50(verifies) * 1e3 if verifies else float("nan"),
        "peak_rss_mb": rss_mb,
        "setup_s": p50(setups),
    }


def both_figures(ops: list[float], verifies: list[float], rss_mb: float,
                 probes: list[dict], spawn: SpeedGauge, kernel: SpeedGauge | None):
    """(end-to-end figures at reference speed, raw figures) of a run.

    In-process ops and verifies are (start, end) intervals scaled by the
    kernel samples near each; without a kernel gauge they are child
    processes, scaled like set-up by the cold-start samples of the run.
    """
    def raw(intervals):
        return [t1 - t0 for t0, t1 in intervals]

    if kernel is not None:
        op_s, verify_s = kernel.scaled(ops), kernel.scaled(verifies)
    else:
        op_s = [d * spawn.overall_scale() for d in raw(ops)]
        verify_s = [d * spawn.overall_scale() for d in raw(verifies)]
    setups = [p["setup_s"] for p in probes]
    scaled = end_to_end(op_s, verify_s, rss_mb,
                        [d * spawn.overall_scale() for d in setups])
    return scaled, end_to_end(raw(ops), raw(verifies), rss_mb, setups)


def probe_metrics(probes: list[dict]) -> dict[str, float]:
    return {
        "import.s": p50([p["import_s"] for p in probes]),
        "import.scipy_loaded": max(p["scipy_loaded"] for p in probes),
        "graphs.build_s": p50([p["build_s"] for p in probes]),
    }


def interleave(triples: list) -> list:
    """sample_triples lists its three strata one after another, in equal
    thirds when the count is a multiple of 3; take one from each in turn."""
    k = len(triples) // 3
    return [t for trio in zip(triples[:k], triples[k:2 * k], triples[2 * k:3 * k])
            for t in trio]


# ------------------------------------------------------------------ sweeps

def sweep_op(g, tri, seed: int, expected: int):
    """One pi3 evaluation; returns (ok, case_id, fallback, detail)."""
    from tripaths import pairing

    try:
        rep = pairing.pi3_lower(g, [tri], seed=seed)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return False, None, False, f"{type(exc).__name__}: {exc}"
    ok = rep.evaluated == 1 and not rep.failures and rep.value == expected
    case = next(iter(rep.case_counts), None)
    detail = "" if ok else f"value {rep.value}, failures {rep.failures[:1]}"
    return ok, case, rep.fallback_count > 0, detail


def capture(g, triples, seed: int, expected: int, report: Report):
    """Rebuild the triples untimed, exactly as pi3_lower does; return
    (digest, case mix, [(structure, omega paths)])."""
    from tripaths._util import mix_seed
    from tripaths.construct import build_structure
    from tripaths.graphs import full_view
    from tripaths.pairing import pair_structure

    view = full_view(g)
    digest = hashlib.sha256()
    mix: Counter = Counter()
    built = []
    for tri in triples:
        try:
            structure, trace = build_structure(g, tri, seed=mix_seed(seed, *tri))
            omega = pair_structure(view, structure)
        except Exception as exc:
            report.problem(f"capture {tri}: {type(exc).__name__}: {exc}")
            continue
        if len(omega) != expected:
            report.problem(f"capture {tri}: {len(omega)} omega paths, want {expected}")
        mix[trace.case_id] += 1
        built.append((structure, omega))
        digest.update(json.dumps([
            list(tri), trace.case_id,
            [[list(p.vertices) for p in bundle] for bundle in
             (structure.bundle_ab, structure.bundle_ac, structure.bundle_bc)],
            [list(p.vertices) for p in omega.paths],
        ]).encode())
    return digest.hexdigest(), mix, built


def recheck(g, structure, omega, report: Report) -> tuple[float, float]:
    """Independently re-check one structure and its Omega paths; returns
    (start, end)."""
    from tripaths.graphs import full_view
    from tripaths.tripod import standard_target
    from tripaths.verification import check_omega_path_set, check_tripod

    view = full_view(g)
    t0 = time.perf_counter()
    ok = (check_tripod(view, structure, standard_target(g.n), exact=True).ok
          and check_omega_path_set(view, structure.omega, omega.paths).ok)
    t1 = time.perf_counter()
    if not ok:
        report.problem(f"re-check of {structure.omega} failed")
    return t0, t1


def run_sweep(spec: Sweep, seed: int, seconds: float, trace: bool, tmp: Path,
              report: Report) -> dict:
    from tripaths.graphs import build
    from tripaths.pairing import formula_value, pi3_upper, sample_triples
    from tripaths.perms import Family

    g = build(spec.n, Family.WHEEL)
    triples = interleave(sample_triples(g, spec.sample, seed))
    spawn = spawn_gauge()
    probes = setup_probes("tripaths", spec.n, spec.sample, seed, tmp, report, spawn)
    expected = formula_value(spec.n)
    upper = pi3_upper(g).value
    if upper != expected:
        report.problem(f"upper bound {upper} != formula {expected}")
    digest, mix, built = capture(g, triples[:spec.capture], seed, expected, report)

    cases: Counter = Counter()
    fallbacks = 0

    def one(tri):
        nonlocal fallbacks
        t0 = time.perf_counter()
        ok, case, fell, detail = sweep_op(g, tri, seed, expected)
        t1 = time.perf_counter()
        report.op(ok, f"{tri}: {detail}")
        if case:
            cases[case] += 1
        fallbacks += fell
        return (t0, t1), case

    record: dict = {"n": spec.n, "expected": expected, "upper": upper}
    if trace:
        tracer = Tracer()
        plain, traced = [], []
        for i, tri in enumerate(triples[:spec.trace_ops]):
            case = {}
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                if on:
                    tracer.op = i
                    tracer.install()
                    rec = tracer.begin("op")
                (t0, t1), case[on] = one(tri)
                if on:
                    tracer.end(rec)
                    tracer.uninstall()
                (traced if on else plain).append(t1 - t0)
            if case[True] != case[False]:
                report.problem(f"{tri}: case {case[False]} untraced, {case[True]} traced")
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics.update(probe_metrics(probes))
        metrics["trace.overhead_ratio"] = sum(plain) / sum(traced)
        record.update(untraced_ops_per_s=len(plain) / sum(plain),
                      traced_ops_per_s=len(traced) / sum(traced),
                      spans=tracer.spans)
    else:
        # One re-check of a captured structure between ops, so the
        # re-checks sample the same stretch of machine time as the ops.
        ops, verifies = [], []
        kernel = kernel_gauge()
        kernel.sample()
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(ops) >= spec.min_ops) or elapsed >= HARD_LIMIT_S:
                break
            ops.append(one(triples[len(ops) % len(triples)])[0])
            if built:
                verifies.append(recheck(g, *built[len(ops) % len(built)], report))
            kernel.sample_if_due()
        kernel.sample()
        metrics, raw = both_figures(ops, verifies, peak_rss_mb(), probes, spawn, kernel)
        record.update(samples=len(ops), raw_metrics=raw, kernel_ms=kernel.samples,
                      spawn_ms=spawn.samples, op_raw_s=[t1 - t0 for t0, t1 in ops])
    record.update(case_mix=dict(sorted(cases.items())),
                  fallback_ratio=fallbacks / max(report.attempted, 1),
                  capture_digest=digest, capture_count=spec.capture,
                  capture_case_mix=dict(sorted(mix.items())),
                  probes=probes, metrics=metrics)
    return record


# ------------------------------------------------------------- cli-certify

class CliRunner:
    """Cold CLI invocations, one child interpreter at a time; with a
    tracer, traced calls run through trace_cli.py and their spans are
    merged under a ``cli.process`` span."""

    def __init__(self, tmp: Path, tracer: Tracer | None = None):
        self.tmp = tmp
        self.tracer = tracer
        self.calls = 0
        self.rss_mb = 0.0

    def call(self, args: list[str], traced: bool = False):
        """Run one CLI command; returns (exit code, (start, end), output)."""
        self.calls += 1
        log = self.tmp / f"cli-{self.calls}.log"
        if not traced:
            code, span, rss, out = run_child(
                [sys.executable, "-m", "tripaths.cli", *args], log)
        else:
            spans = self.tmp / f"cli-{self.calls}.spans"
            rec = self.tracer.begin("cli.process")
            index = len(self.tracer.spans) - 1
            code, span, rss, out = run_child(
                [sys.executable, str(HERE / "trace_cli.py"), str(spans), "--", *args],
                log)
            self.tracer.end(rec)
            if spans.exists():
                merge(self.tracer.spans, load_spans(str(spans)), index, self.tracer.op)
        self.rss_mb = max(self.rss_mb, rss)
        return code, span, out

    def structure(self, args: list[str], cert: Path, traced: bool = False):
        """Build and certify; returns (ok, detail)."""
        code, _, out = self.call(["structure", *args, "--certificate", str(cert)], traced)
        ok = code == 0 and cert.is_file()
        return ok, "" if ok else f"structure {args} exited {code}: {last_line(out)}"

    def verify(self, cert: Path, traced: bool = False):
        """Re-check a certificate; returns (ok, (start, end), detail)."""
        code, span, out = self.call(["verify", str(cert)], traced)
        ok = code == 0
        return ok, span, "" if ok else f"verify {cert.name} exited {code}: {last_line(out)}"


def check_goldens(runner: CliRunner, report: Report) -> None:
    """Rebuild the golden triples through the CLI; bytes must match."""
    for n in (4, 5):
        golden = GOLDEN / f"certificate-n{n}.json"
        want = golden.read_bytes()
        omega = ";".join(json.loads(want)["omega_perms"])
        cert = runner.tmp / f"golden-n{n}.json"
        ok, detail = runner.structure(
            ["--n", str(n), "--omega", omega, "--seed", "0"], cert)
        if ok and cert.read_bytes() != want:
            ok, detail = False, f"rebuilt n={n} certificate differs from {golden.name}"
        report.op(ok, detail)


def round_trip(runner: CliRunner, n: int, s: int, cert: Path, report: Report,
               traced: bool = False):
    """structure --random --seed s, then verify; returns the round trip's
    (start, end) and the verify child's, or None when it did not run."""
    t0 = time.perf_counter()
    ok, detail = runner.structure(
        ["--n", str(n), "--random", "--seed", str(s)], cert, traced)
    verify = None
    if ok:
        ok, verify, detail = runner.verify(cert, traced)
    t1 = time.perf_counter()
    report.op(ok, detail)
    return (t0, t1), verify


def run_cli(spec: Cli, seed: int, seconds: float, trace: bool, tmp: Path,
            report: Report) -> dict:
    tracer = Tracer() if trace else None
    runner = CliRunner(tmp, tracer)
    spawn = spawn_gauge()
    probes = setup_probes("tripaths.cli", spec.n, 1, seed, tmp, report, spawn)
    check_goldens(runner, report)
    rng = random.Random(seed)
    seeds: list[int] = []
    digest = hashlib.sha256()
    mix: Counter = Counter()
    cases: Counter = Counter()
    fallbacks = 0

    def one(i: int, traced: bool = False):
        nonlocal fallbacks
        while len(seeds) <= i:
            seeds.append(rng.randrange(1 << 31))
        cert = tmp / f"cert-{i}-{int(traced)}.json"
        trip, verify = round_trip(runner, spec.n, seeds[i], cert, report, traced)
        if cert.is_file():
            data = cert.read_bytes()
            case = json.loads(data)["case"]
            cases[case["case_id"]] += 1
            fallbacks += bool(case["fallback"])
            if i < spec.capture and not traced:
                digest.update(data)
                mix[case["case_id"]] += 1
        return trip, verify

    record: dict = {"n": spec.n}
    if trace:
        plain, traced = [], []
        for i in range(spec.trace_ops):
            tracer.op = i
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                t0, t1 = one(i, on)[0]
                (traced if on else plain).append(t1 - t0)
            certs = [tmp / f"cert-{i}-{k}.json" for k in (0, 1)]
            if all(c.is_file() for c in certs) and certs[0].read_bytes() != certs[1].read_bytes():
                report.problem(f"tracing changed the certificate bytes of op {i}")
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics.update(probe_metrics(probes))
        metrics["trace.overhead_ratio"] = sum(plain) / sum(traced)
        record.update(untraced_ops_per_s=len(plain) / sum(plain),
                      traced_ops_per_s=len(traced) / sum(traced),
                      spans=tracer.spans)
    else:
        ops, verifies = [], []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(ops) >= spec.min_ops) or elapsed >= HARD_LIMIT_S:
                break
            trip, verify = one(len(ops))
            ops.append(trip)
            if verify is not None:
                verifies.append(verify)
            spawn.sample()
        metrics, raw = both_figures(ops, verifies, runner.rss_mb, probes, spawn, None)
        record.update(samples=len(ops), raw_metrics=raw, spawn_ms=spawn.samples,
                      op_raw_s=[t1 - t0 for t0, t1 in ops])
    record.update(case_mix=dict(sorted(cases.items())),
                  fallback_ratio=fallbacks / max(sum(cases.values()), 1),
                  capture_digest=digest.hexdigest(), capture_count=spec.capture,
                  capture_case_mix=dict(sorted(mix.items())),
                  probes=probes, metrics=metrics)
    return record


# -------------------------------------------------------------------- main

def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith(("_ms_p50", "_ms_p90", ".ms_p50")):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("scipy_loaded"):
        return "bool"
    if name.endswith("_per_op"):
        return "count/op"
    return "count"


def write_outputs(stem: str, record: dict) -> None:
    spans = record.pop("spans", None)
    if spans is not None:
        dump_spans(spans, OUT / f"{stem}.spans.jsonl")
        with open(OUT / f"{stem}.layers.txt", "w") as fh:
            for name, value in sorted(record["metrics"].items()):
                fh.write(f"{name:<40} {value:>14.6g} {unit_of(name)}\n")
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def summarize(args, record: dict, report: Report) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {sys.version.split()[0]}")
    for name, value in sorted(record["metrics"].items()):
        print(f"  {name:<40} {value:>14.6g} {unit_of(name)}")
    if "samples" in record:
        beyond = record["samples"] - int(0.9 * record["samples"])
        print(f"samples    : {record['samples']} ops, {beyond} beyond p90")
    if "traced_ops_per_s" in record:
        print(f"ops/s      : untraced {record['untraced_ops_per_s']:.6g}, "
              f"traced {record['traced_ops_per_s']:.6g}")
    print(f"case mix   : {record['case_mix']}")
    if "capture_digest" in record:
        print(f"capture    : first {record['capture_count']} inputs, "
              f"mix {record['capture_case_mix']}, sha256 {record['capture_digest']}")
    if "fallback_ratio" in record:
        print(f"fallback   : {record['fallback_ratio']:.6g} of ops")
    print(f"failed     : {report.failed} of {report.attempted} ops "
          f"(failed_ratio {report.failed / max(report.attempted, 1):.6g})")
    for line in report.problems:
        print(f"PROBLEM    : {line}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="tripaths benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tripaths" / "__init__.py").is_file():
        print(f"error: no tripaths sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "cli-certify" and not GOLDEN.is_dir():
        print(f"error: no golden certificates under {GOLDEN}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the harness and every child it starts, so the host-speed
    # samples describe the CPU the measured work ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir()
    report = Report()
    try:
        if args.workload == "cli-certify":
            record = run_cli(CLI, args.seed, args.seconds, bool(args.trace), tmp, report)
        else:
            record = run_sweep(SWEEPS[args.workload], args.seed, args.seconds,
                               bool(args.trace), tmp, report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, python=sys.version.split()[0],
                  attempted=report.attempted, failed=report.failed,
                  problems=report.problems)
    write_outputs(f"{args.workload}-s{args.seed}-t{args.trace}", record)
    summarize(args, record, report)
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in record["metrics"].items()},
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
