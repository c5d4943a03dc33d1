"""Run one ``tripaths`` CLI command with the layer spans switched on.

    python3 bench/trace_cli.py SPANS_FILE -- verify cert.json

Imports ``tripaths.cli`` under an ``import`` span, installs the tracer's
wrappers, runs ``tripaths.cli.main`` under a ``cli.main`` span, writes
the spans to SPANS_FILE (one JSON list per line) and exits with the
command's own exit code.
"""

import sys

from tracer import Tracer, dump_spans


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: trace_cli.py SPANS_FILE -- COMMAND ...", file=sys.stderr)
        return 2
    tracer = Tracer()
    rec = tracer.begin("import.tripaths_cli")
    import tripaths.cli
    tracer.end(rec)
    tracer.install()
    rec = tracer.begin("cli.main")
    try:
        code = tripaths.cli.main(argv)
    finally:
        tracer.end(rec)
        tracer.uninstall()
        dump_spans(tracer.spans, spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
