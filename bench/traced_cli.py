"""Run ``dysonnet.cli.main`` in this process with tracing installed.

Usage: ``python3 traced_cli.py RUN_ID SPANS_JSON -- CLI_ARGS...``.  The
import of ``dysonnet.cli`` is the first span, so it is timed from a cold
interpreter; the exit code is the CLI's own.
"""

from __future__ import annotations

import sys

from tracer import Tracer, install


def main(argv: list[str]) -> int:
    run_id, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py RUN_ID SPANS_JSON -- CLI_ARGS...")
    tracer = Tracer(run_id)
    index = tracer.begin("cli.import")
    import dysonnet.cli as cli
    tracer.end(index)
    missing = install(tracer)
    if missing:
        print("not traced (absent): " + ", ".join(missing), file=sys.stderr)
    index = tracer.begin("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.end(index)
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
