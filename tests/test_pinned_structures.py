"""Pinned construction results: structure digests at n = 4..7, of a
larger n = 7 sample, and of one slow triple at n = 8.

``tests/pinned/structures.json`` holds, for each n, the sha256 of what
``build_structure`` and ``pair_structure`` give on
``sample_triples(g, N, 1)``: the case record, the three bundles and the
paired paths, in triple order.  A change that only makes the flow layer
faster must leave every digest as it is.  To record the file again after
a change that is meant to alter results, write ``structure_digests()``
out as JSON and say why in the change log.
"""

import hashlib
import json
import time
from pathlib import Path as FilePath

import pytest

from tripaths._util import mix_seed
from tripaths.certify import _jsonable
from tripaths.construct import build_structure
from tripaths.graphs import build, full_view
from tripaths.pairing import pair_structure, sample_triples
from tripaths.perms import Family
from tripaths.verification import formula_value

PINNED = FilePath(__file__).parent / "pinned" / "structures.json"
PINNED_N7 = FilePath(__file__).parent / "pinned" / "structures_n7_sample.json"
PINNED_N8 = FilePath(__file__).parent / "pinned" / "structures_n8.json"
SAMPLES = {4: 60, 5: 120, 6: 45, 7: 12}
BUDGET_S = 3.0


def _record(g, tri, seed: int) -> dict:
    structure, trace = build_structure(g, tri, seed=seed)
    omega_set = pair_structure(full_view(g), structure)
    return {
        "omega": list(tri),
        "case": _jsonable({"case_id": trace.case_id, "roles": trace.roles,
                           "copies": trace.copies, "auxiliary": trace.auxiliary,
                           "fallback": trace.fallback, "seed": trace.seed}),
        "bundles": [[list(p.vertices) for p in bundle] for bundle in
                    (structure.bundle_ab, structure.bundle_ac, structure.bundle_bc)],
        "omega_paths": [list(p.vertices) for p in omega_set.paths],
    }


def _digest(records: list) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _sample_records(g, count: int) -> list:
    """Records of ``sample_triples(g, count, 1)``, each seeded as
    ``pi3_lower(g, triples, seed=1)`` seeds it."""
    return [_record(g, tri, mix_seed(1, *tri)) for tri in sample_triples(g, count, 1)]


def structure_digests() -> dict:
    digests = {}
    for n, count in SAMPLES.items():
        records = _sample_records(build(n, Family.WHEEL), count)
        digests[f"n{n}"] = {"triples": count, "sha256": _digest(records)}
    return digests


def test_structure_digests_are_pinned():
    start = time.perf_counter()
    got = structure_digests()
    elapsed = time.perf_counter() - start
    assert got == json.loads(PINNED.read_text())
    assert elapsed <= BUDGET_S, f"digest sweep took {elapsed:.2f} s"


@pytest.mark.slow
def test_n7_sample_needs_no_fallback_and_is_pinned():
    """240 sampled n = 7 triples, the seeded minus-copy flows of the odd
    routes among them: no triple fails or falls back, each pairs into
    formula_value(7) paths, and ``tests/pinned/structures_n7_sample.json``
    holds the digest of their records; the test prints its time."""
    pin = json.loads(PINNED_N7.read_text())
    start = time.perf_counter()
    records = _sample_records(build(7, Family.WHEEL), pin["triples"])
    print(f"n = 7: {pin['triples']} triples took {time.perf_counter() - start:.1f} s")
    assert [r["omega"] for r in records if r["case"]["fallback"]] == []
    assert {len(r["omega_paths"]) for r in records} == {formula_value(7)}
    assert _digest(records) == pin["sha256"]


@pytest.mark.slow
def test_n8_slow_triple_is_pinned():
    """An n = 8 triple that spends most of its flow queries in exchange
    repair; ``tests/pinned/structures_n8.json`` holds the digest of its
    one record, in the format above, and the test prints its time."""
    pin = json.loads(PINNED_N8.read_text())
    g = build(8, Family.WHEEL)
    start = time.perf_counter()
    record = _record(g, tuple(pin["omega"]), pin["seed"])
    print(f"n = 8 triple {tuple(pin['omega'])} took {time.perf_counter() - start:.2f} s")
    assert _digest([record]) == pin["sha256"]
