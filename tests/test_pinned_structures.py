"""Pinned construction results: structure digests at n = 4..7.

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

from tripaths._util import mix_seed
from tripaths.certify import _jsonable
from tripaths.construct import build_structure
from tripaths.graphs import build, full_view
from tripaths.pairing import pair_structure, sample_triples
from tripaths.perms import Family

PINNED = FilePath(__file__).parent / "pinned" / "structures.json"
SAMPLES = {4: 60, 5: 120, 6: 45, 7: 12}
BUDGET_S = 3.0


def _records(n: int, count: int) -> list:
    g = build(n, Family.WHEEL)
    view = full_view(g)
    out = []
    for tri in sample_triples(g, count, 1):
        structure, trace = build_structure(g, tri, seed=mix_seed(1, *tri))
        omega_set = pair_structure(view, structure)
        out.append({
            "omega": list(tri),
            "case": _jsonable({"case_id": trace.case_id, "roles": trace.roles,
                               "copies": trace.copies, "auxiliary": trace.auxiliary,
                               "fallback": trace.fallback, "seed": trace.seed}),
            "bundles": [[list(p.vertices) for p in bundle] for bundle in
                        (structure.bundle_ab, structure.bundle_ac, structure.bundle_bc)],
            "omega_paths": [list(p.vertices) for p in omega_set.paths],
        })
    return out


def structure_digests() -> dict:
    digests = {}
    for n, count in SAMPLES.items():
        text = json.dumps(_records(n, count), sort_keys=True, separators=(",", ":"))
        digests[f"n{n}"] = {"triples": count,
                            "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return digests


def test_structure_digests_are_pinned():
    start = time.perf_counter()
    got = structure_digests()
    elapsed = time.perf_counter() - start
    assert got == json.loads(PINNED.read_text())
    assert elapsed <= BUDGET_S, f"digest sweep took {elapsed:.2f} s"
