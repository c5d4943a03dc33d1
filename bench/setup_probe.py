"""Time one cold set-up: import, graph build and triple sampling.

Run in a fresh interpreter with ``src`` on ``PYTHONPATH``:

    python3 bench/setup_probe.py --module tripaths --n 7 --count 600 --seed 1

Prints one JSON object with ``import_s``, ``build_s``, ``sample_s``,
``setup_s`` (their sum, from just before the import to the last sample)
and ``scipy_loaded`` (whether importing the module pulled in scipy).
"""

import argparse
import importlib
import json
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--module", required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    importlib.import_module(args.module)
    from tripaths.graphs import build
    from tripaths.pairing import sample_triples
    from tripaths.perms import Family
    t1 = time.perf_counter()
    g = build(args.n, Family.WHEEL)
    t2 = time.perf_counter()
    sample_triples(g, args.count, args.seed)
    t3 = time.perf_counter()
    print(json.dumps({
        "import_s": t1 - t0, "build_s": t2 - t1, "sample_s": t3 - t2,
        "setup_s": t3 - t0, "scipy_loaded": int("scipy" in sys.modules),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
