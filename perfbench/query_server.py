"""``repro query serve`` in a child process, optionally traced.

Usage: ``python3 perfbench/query_server.py [--trace-dir DIR] SPEC
--store ROOT [query serve options]``.  Without ``--trace-dir`` this is
exactly the CLI; with it, the layer wrappers of :mod:`tracer` are
installed first and their aggregates written to ``DIR`` when the server
stops (SIGTERM ends ``query serve`` cleanly).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv):
    active = None
    if argv[:1] == ["--trace-dir"]:
        import tracer

        active = tracer.install(Path(argv[1]))
        argv = argv[2:]
    from repro.cli import main as cli_main

    try:
        return cli_main(["query", "serve", *argv])
    finally:
        if active is not None:
            active.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
