"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. Smoke: every workload at a tiny count, untraced and traced.  Each
   must be correct and print every metric BENCHMARK.json names for its
   mode (``end_to_end`` untraced, ``per_layer`` traced).
2. Negative case: a certificate with one bundle path broken into a
   non-edge hop goes through the cli-certify check and must count as a
   failed op.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import run


def smoke(manifest: dict) -> bool:
    wanted = {0: [m["name"] for m in manifest["end_to_end"]],
              1: [m["name"] for m in manifest["per_layer"]]}
    good = True
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            report = run.Report()
            tmp = run.OUT / f"selftest-{workload}-{trace}"
            tmp.mkdir(parents=True, exist_ok=True)
            try:
                if workload == "cli-certify":
                    spec = dataclasses.replace(run.CLI, min_ops=1, capture=1, trace_ops=1)
                    record = run.run_cli(spec, 1, 0, bool(trace), tmp, report)
                else:
                    spec = dataclasses.replace(run.SWEEPS[workload], sample=30,
                                               min_ops=3, capture=2, trace_ops=2)
                    record = run.run_sweep(spec, 1, 0, bool(trace), tmp, report)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            missing = [m for m in wanted[trace] if m not in record["metrics"]]
            ok = report.correct and not missing
            good &= ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload:<12} trace {trace}: "
                  f"{report.attempted} ops, {report.failed} failed, "
                  f"missing {missing or 'none'}")
            for name in wanted[trace]:
                value = record["metrics"].get(name)
                print(f"       {name:<40} {value!r:.14} {run.unit_of(name)}")
            for line in report.problems:
                print(f"       PROBLEM {line}")
    return good


def negative_case() -> bool:
    tmp = run.OUT / "selftest-negative"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = run.CliRunner(tmp)
        report = run.Report()
        cert = tmp / "cert.json"
        made, detail = runner.structure(["--n", "5", "--random", "--seed", "1"], cert)
        if not made:
            print(f"FAIL negative case: could not build a certificate: {detail}")
            return False
        doc = json.loads(cert.read_text())
        path = max(doc["bundles"]["ab"], key=len)
        # the graph is bipartite, so v0-v2 is never an edge
        path[1], path[2] = path[2], path[1]
        cert.write_text(json.dumps(doc))
        ok, _, detail = runner.verify(cert)
        report.op(ok, detail)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    caught = report.failed == 1 and not report.correct
    print(f"{'ok  ' if caught else 'FAIL'} negative case: corrupted certificate -> "
          f"{report.failed} of {report.attempted} ops failed ({detail or 'verify passed'})")
    return caught


def main() -> int:
    if not (run.SRC / "tripaths" / "__init__.py").is_file():
        print(f"error: no tripaths sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    good = smoke(manifest)
    good &= negative_case()
    print("selftest:", "PASS" if good else "FAIL")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
