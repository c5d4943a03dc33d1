"""Command line behavior: subcommands, exit codes, file outputs."""

import concurrent.futures
import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

import tripaths
import tripaths.cli
import tripaths.construct
from tripaths.cli import (
    EXIT_CONSTRUCTION,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    main,
)
from tripaths.graphs import Path

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_gen_edgelist_stdout(capsys):
    assert main(["gen", "--n", "4", "--family", "wheel"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "4 wheel"
    assert len(lines) == 73


def test_gen_dot_file(tmp_path, capsys):
    target = tmp_path / "g.dot"
    assert main(["gen", "--n", "4", "--format", "dot",
                 "--output", str(target)]) == EXIT_OK
    text = target.read_text()
    assert text.count("--") == 72
    capsys.readouterr()


def test_gen_wheel_too_small(capsys):
    assert main(["gen", "--n", "3", "--family", "wheel"]) == EXIT_USAGE
    assert "wheel requires n" in capsys.readouterr().err


def test_gen_bss_counts(capsys):
    assert main(["gen", "--n", "4", "--family", "bss"]) == EXIT_OK
    out = capsys.readouterr().out
    assert len(out.strip().split("\n")) == 61


def test_structure_random_seed42(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = main(["structure", "--n", "4", "--random", "--seed", "42",
                 "--strict", "--certificate", str(cert_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "bundles    : ab=2 ac=2 bc=2" in out
    assert "omega paths: 3" in out
    doc = json.loads(cert_path.read_text())
    assert doc["n"] == 4
    assert [len(doc["bundles"][k]) for k in ("ab", "ac", "bc")] == [2, 2, 2]


def test_structure_explicit_omega(capsys):
    code = main(["structure", "--n", "5", "--strict", "--omega",
                 "[1,2,3,4,5];[2,3,1,4,5];[3,1,2,4,5]"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "OddCase1_2_2" in out
    assert "ab=2 ac=4 bc=4" in out
    assert "omega paths: 5" in out


def test_structure_duplicate_omega(capsys):
    code = main(["structure", "--n", "4", "--omega",
                 "[1,2,3,4];[1,2,3,4];[2,1,3,4]"])
    assert code == EXIT_USAGE
    capsys.readouterr()


def test_structure_rejected_by_the_gate_exits_4(monkeypatch, capsys):
    real = tripaths.construct.build_structure

    def broken(g, omega, **kwargs):
        structure, trace = real(g, omega, **kwargs)
        a, b, _ = structure.omega
        bad = structure.bundle_ab[:1] + (Path((a, a, b)),)
        return dataclasses.replace(structure, bundle_ab=bad), trace

    monkeypatch.setattr(tripaths.construct, "build_structure", broken)
    assert main(["structure", "--n", "4", "--random"]) == EXIT_VERIFICATION
    assert "verification failed" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["structure", "--random"], ["pi3", "--samples", "3"]])
def test_structure_and_pi3_take_no_family(command, capsys):
    # both commands run on the wheel family alone, so --family is no option of theirs
    assert main([command[0], "--n", "4", "--family", "bss", *command[1:]]) == EXIT_USAGE
    assert "unrecognized arguments: --family bss" in capsys.readouterr().err


def test_structure_missing_omega(capsys):
    assert main(["structure", "--n", "4"]) == EXIT_USAGE
    capsys.readouterr()


def test_pi3_exhaustive_wrong_n(capsys):
    assert main(["pi3", "--n", "5", "--exhaustive"]) == EXIT_USAGE
    capsys.readouterr()


def test_pi3_sampled_match(tmp_path, capsys):
    report = tmp_path / "pi3.txt"
    code = main(["pi3", "--n", "5", "--samples", "120", "--seed", "3",
                 "--report", str(report)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict    : MATCH" in out
    text = report.read_text()
    assert "lower bound: 5" in text
    sidecar = json.loads((tmp_path / "pi3.txt.json").read_text())
    assert sidecar["verdict"] == "MATCH"
    assert sidecar["lower"] == 5 and sidecar["upper"] == 5
    assert sidecar["fallbacks"] == 0


def test_pi3_jobs_agree_with_serial(tmp_path, capsys):
    args = ["pi3", "--n", "5", "--samples", "60", "--seed", "4"]
    serial = main(args + ["--report", str(tmp_path / "serial.txt")])
    parallel = main(args + ["--jobs", "2", "--report", str(tmp_path / "jobs.txt")])
    capsys.readouterr()
    assert serial == parallel == EXIT_OK
    sidecar_serial = json.loads((tmp_path / "serial.txt.json").read_text())
    sidecar_jobs = json.loads((tmp_path / "jobs.txt.json").read_text())
    assert sidecar_jobs == sidecar_serial
    assert sidecar_serial["worst_triple"] is not None


class _InlinePool:
    """Stands in for ProcessPoolExecutor: runs the chunks in this process
    and records how many workers the pool was asked for."""

    asked: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.asked.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pi3_jobs_never_exceed_the_chunks_or_cpus(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(tripaths.cli, "_WORKER_GRAPH", None)
    monkeypatch.setattr(_InlinePool, "asked", [])
    args = ["pi3", "--n", "5", "--samples", "3", "--seed", "2"]
    assert main(args + ["--report", str(tmp_path / "serial.txt")]) == EXIT_OK
    assert _InlinePool.asked == []
    assert main(args + ["--jobs", "5000", "--report", str(tmp_path / "jobs.txt")]) == EXIT_OK
    capsys.readouterr()
    assert _InlinePool.asked == [min(3, os.cpu_count() or 1)]
    assert (json.loads((tmp_path / "jobs.txt.json").read_text())
            == json.loads((tmp_path / "serial.txt.json").read_text()))


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_pi3_jobs_below_one_is_a_usage_error(jobs, capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "asked", [])
    assert main(["pi3", "--n", "5", "--samples", "3", "--jobs", jobs]) == EXIT_USAGE
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert _InlinePool.asked == []


def test_lemmas_pass(capsys):
    assert main(["lemmas", "--n", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "suite      : PASS" in out
    assert "FAIL" not in out


def test_lemmas_inject_fault(capsys):
    assert main(["lemmas", "--n", "4", "--inject-fault"]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "cross-edge-counts" in out and "FAIL" in out


def test_lemmas_wrong_n(capsys):
    assert main(["lemmas", "--n", "6"]) == EXIT_USAGE
    capsys.readouterr()


def test_verify_golden(capsys):
    code = main(["verify", str(GOLDEN / "certificate-n4.json")])
    assert code == EXIT_OK
    assert "status     : ok" in capsys.readouterr().out


def _swap_two_path_vertices(doc):
    path = doc["bundles"]["ab"][1]
    path[1], path[2] = path[2], path[1]


@pytest.mark.parametrize("golden, mutate, failed", [
    ("certificate-n4.json", _swap_two_path_vertices, "structure-valid"),
    ("certificate-n5.json",
     lambda doc: doc.update(omega_perms=["[2,3,1,4,5]", "[1,2,3,4,5]", "[3,1,2,4,5]"]),
     "omega-ranks-match-perms"),
    ("certificate-n5.json",
     lambda doc: doc.update(omega_perms=["[1,1,2,3,4]", "[2,3,1,4,5]", "[3,1,2,4,5]"]),
     "omega-ranks-match-perms"),
    ("certificate-n5.json",
     lambda doc: doc.update(omega_perms=["[1,2,3,4]", "[2,3,1,4,5]", "[3,1,2,4,5]"]),
     "omega-ranks-match-perms"),
], ids=["path-vertices-swapped", "perms-swapped", "perm-repeats-a-value", "perm-of-degree-4"])
def test_verify_corrupted(golden, mutate, failed, tmp_path, capsys):
    doc = json.loads((GOLDEN / golden).read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == EXIT_VERIFICATION
    assert {line.split()[0] for line in capsys.readouterr().out.splitlines()
            if " FAIL" in line} == {failed}


def test_verify_claim_mismatch(tmp_path, capsys):
    doc = json.loads((GOLDEN / "certificate-n4.json").read_text())
    doc["pi3"]["formula"] = 4
    off = tmp_path / "off.json"
    off.write_text(json.dumps(doc))
    assert main(["verify", str(off)]) == EXIT_MISMATCH
    capsys.readouterr()


@pytest.mark.parametrize("claims", [
    {"upper": 99}, {"lower": 0}, {"r": 0}, {"lower": 4, "upper": 4},
], ids=["upper-99", "lower-0", "r-0", "lower-and-upper-4"])
def test_verify_rederives_every_pi3_claim(claims, tmp_path, capsys):
    """lower is the number of Omega paths re-checked, r and upper come
    from the rebuilt graph: a recorded value that differs is a mismatch."""
    doc = json.loads((GOLDEN / "certificate-n5.json").read_text())
    doc["pi3"].update(claims)
    off = tmp_path / "off.json"
    off.write_text(json.dumps(doc))
    assert main(["verify", str(off)]) == EXIT_MISMATCH
    failed = {line.split()[0] for line in capsys.readouterr().out.splitlines()
              if " FAIL" in line}
    assert failed == {f"pi3-{key}" for key in claims}


@pytest.mark.parametrize("field, mutate", [
    ("case-copies", lambda doc: doc["case"]["copies"].update(a=1)),
    ("case-roles", lambda doc: doc["case"].update(roles={"a": 1, "b": 2, "c": 3})),
    ("solver-seed", lambda doc: doc["solver"].update(seed=7)),
    ("case-fallback", lambda doc: doc["case"].update(fallback=True)),
    ("case-id", lambda doc: doc["case"].update(case_id="Even")),
    ("case-id", lambda doc: doc["case"].update(case_id="NoSuchCase")),
    ("case-id", lambda doc: doc["case"].update(case_id="OddCase2")),
    ("case-id", lambda doc: doc["case"].update(case_id=["OddCase1_2_2"])),
    ("case-id", lambda doc: doc["case"].update(case_id={"OddCase1_2_2": 1})),
    ("solver-ranking", lambda doc: doc["solver"].update(ranking="colex")),
], ids=["copies-a-1", "roles-1-2-3", "solver-seed-7", "fallback-true", "case-even",
        "case-unknown", "case-two-copies", "case-list", "case-object", "ranking-colex"])
def test_verify_rederives_the_case_and_solver_claims(field, mutate, tmp_path, capsys):
    """roles are the omega ranks in order, copies the copy of each role,
    the case id a route that fits how the terminals spread over the copies
    (the n = 5 golden's lie in one copy), fallback true exactly for the
    generic route, and the solver seed is the case seed and its ranking
    lehmer-lex: a record that differs is a mismatch."""
    doc = json.loads((GOLDEN / "certificate-n5.json").read_text())
    mutate(doc)
    off = tmp_path / "off.json"
    off.write_text(json.dumps(doc))
    assert main(["verify", str(off)]) == EXIT_MISMATCH
    failed = {line.split()[0] for line in capsys.readouterr().out.splitlines()
              if " FAIL" in line}
    assert failed == {field}


def _fallback_certificate(tmp_path, monkeypatch, capsys):
    """An n = 5 certificate built with every odd route stubbed to give up;
    its three terminals share one copy."""
    for route in ("_same_copy", "_two_copies", "_three_copies"):
        monkeypatch.setattr(tripaths.construct, route, lambda *args: None)
    path = tmp_path / "fallback.json"
    assert main(["structure", "--n", "5", "--random", "--seed", "3",
                 "--certificate", str(path)]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert len(set(doc["case"]["copies"].values())) == 1
    return doc


@pytest.mark.parametrize("edit, failed", [
    ({}, set()),
    ({"fallback": False}, {"case-fallback"}),
    ({"case_id": "OddCase2"}, {"case-id", "case-fallback"}),
    ({"case_id": "Even", "fallback": False}, {"case-id"}),
], ids=["as-built", "fallback-false", "odd-case-2", "even"])
def test_verify_checks_the_case_of_a_fallback_certificate(edit, failed, tmp_path,
                                                           monkeypatch, capsys):
    doc = _fallback_certificate(tmp_path, monkeypatch, capsys)
    assert doc["case"]["case_id"] == "FallbackGeneric" and doc["case"]["fallback"] is True
    doc["case"].update(edit)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == (EXIT_MISMATCH if failed else EXIT_OK)
    assert {line.split()[0] for line in capsys.readouterr().out.splitlines()
            if " FAIL" in line} == failed


def test_verify_wrong_schema(tmp_path, capsys):
    doc = json.loads((GOLDEN / "certificate-n4.json").read_text())
    doc["extra_field"] = True
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps(doc))
    assert main(["verify", str(odd)]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("mutate", [
    lambda doc: doc["bundles"]["ab"][0].__setitem__(1, "8"),
    lambda doc: doc.__setitem__("pi3", [1]),
    lambda doc: doc.__setitem__("checks", [1, 2]),
    lambda doc: doc.__setitem__("n", 100),
    lambda doc: doc.__setitem__("n", 3),
    lambda doc: doc.__setitem__("family", "hexagon"),
    lambda doc: doc.__setitem__("solver", 5),
    lambda doc: doc.__setitem__("omega_perms", [1, 2, 3]),
], ids=["string-vertex", "pi3-list", "checks-ints", "n-100", "n-3", "family-hexagon",
        "solver-5", "omega-perms-ints"])
def test_verify_ill_typed_certificate_is_a_usage_error(mutate, tmp_path, capsys):
    doc = json.loads((GOLDEN / "certificate-n4.json").read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == EXIT_USAGE
    assert "certificate rejected" in capsys.readouterr().err


def test_verify_missing_file(capsys):
    assert main(["verify", "/nonexistent/cert.json"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("data", [
    ("[" * 100000 + "]" * 100000).encode(),
    b"\xff\xfe{}",
], ids=["nested-100000-deep", "not-utf8"])
def test_verify_unreadable_json_is_a_usage_error(data, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert main(["verify", str(bad)]) == EXIT_USAGE
    assert "certificate rejected" in capsys.readouterr().err


def test_structure_certificate_roundtrips_through_verify(tmp_path, capsys):
    cert_path = tmp_path / "n5.json"
    assert main(["structure", "--n", "5", "--random", "--seed", "9",
                 "--certificate", str(cert_path)]) == EXIT_OK
    assert main(["verify", str(cert_path)]) == EXIT_OK
    capsys.readouterr()


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_same_seed_certificates_byte_identical(tmp_path, capsys):
    first = tmp_path / "run1.json"
    second = tmp_path / "run2.json"
    for target in (first, second):
        code = main(["structure", "--n", "5", "--random", "--seed", "7",
                     "--certificate", str(target)])
        assert code == EXIT_OK
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_outdir_redirect(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TRIPATHS_OUTDIR", str(tmp_path))
    assert main(["lemmas", "--n", "4"]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "lemmas-n4.txt").exists()
    assert (tmp_path / "lemmas-n4.txt.json").exists()


def _child(args, timeout):
    """Run a child interpreter that imports this checkout's tripaths."""
    src = str(pathlib.Path(tripaths.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable] + args, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_verify_runs_without_scipy(tmp_path):
    # neither the MILP oracle's scipy nor the pi3 --jobs process pool
    # belongs in a structure-then-verify round trip
    cert = str(tmp_path / "n5.json")
    script = (
        "import sys, tripaths, tripaths.cli\n"
        f"code = tripaths.cli.main(['structure', '--n', '5', '--random', "
        f"'--certificate', {cert!r}])\n"
        "assert code == 0, code\n"
        f"for path in ({cert!r}, {str(GOLDEN / 'certificate-n5.json')!r}):\n"
        "    code = tripaths.cli.main(['verify', path])\n"
        "    assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        "for name in ('concurrent.futures.process', 'multiprocessing'):\n"
        "    assert name not in sys.modules, name + ' was imported'\n"
    )
    done = _child(["-c", script], timeout=120)
    assert done.returncode == 0, done.stderr


def test_verify_loads_no_solver_module():
    # a certificate is re-checked by the checker side alone, and a bare
    # package import loads nothing until a name is asked for
    script = (
        "import sys, tripaths\n"
        "loaded = [m for m in sys.modules if m.startswith('tripaths.')]\n"
        "assert loaded == [], loaded\n"
        "assert set(tripaths.__all__) <= set(dir(tripaths))\n"
        "import tripaths.cli\n"
        f"code = tripaths.cli.main(['verify', {str(GOLDEN / 'certificate-n5.json')!r}])\n"
        "assert code == 0, code\n"
        "solver = [name for name in ('construct', 'flows', 'tripod', 'pairing',\n"
        "                            'lemmas', 'oracle')\n"
        "          if 'tripaths.' + name in sys.modules]\n"
        "assert solver == [], solver\n"
    )
    done = _child(["-c", script], timeout=120)
    assert done.returncode == 0, done.stderr


def test_pi3_samples_beyond_a_stratum_is_a_usage_error():
    # n = 4 has 80 one-copy triples; 300 samples ask for 100 of them
    done = _child(["-m", "tripaths.cli", "pi3", "--n", "4", "--samples", "300"],
                  timeout=60)
    assert done.returncode == EXIT_USAGE, done.stderr
    assert "only 80" in done.stderr


def test_structure_and_verify_under_optimize(tmp_path):
    # python -O strips assert statements; the gates must not depend on
    # them.  Views at n = 5 stay below the size where flows search from
    # both ends; the even case at n = 6 walks the labels of those searches.
    for n in (5, 6):
        cert = tmp_path / f"n{n}.json"
        done = _child(["-O", "-m", "tripaths.cli", "structure", "--n", str(n),
                       "--random", "--certificate", str(cert)], timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        done = _child(["-O", "-m", "tripaths.cli", "verify", str(cert)], timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert "status     : ok" in done.stdout


@pytest.mark.parametrize("args", [
    ["gen", "--n", "4", "--output"],
    ["structure", "--n", "4", "--random", "--certificate"],
    ["pi3", "--n", "4", "--samples", "3", "--report"],
    ["lemmas", "--n", "4", "--report"],
], ids=lambda args: args[0])
def test_unwritable_output_is_a_usage_error(args, tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    assert main(args + [str(target)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output") and str(target) in err


@pytest.mark.parametrize("args", [
    ["structure", "--n", "4", "--random"],
    ["pi3", "--n", "4", "--samples", "3"],
    ["lemmas", "--n", "4"],
], ids=lambda args: args[0])
def test_missing_outdir_is_a_usage_error(args, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TRIPATHS_OUTDIR", str(tmp_path / "missing"))
    assert main(args) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: cannot write output")
