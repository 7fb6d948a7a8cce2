"""Run `contactrel <args>` in this interpreter, traced or with fewer checks.

    python3 bench/verify_child.py [--spans FILE] [--only NAME,NAME] -- verify --json

``--spans`` installs the layer wrappers, records the whole command under one
root span and writes the spans to FILE when it ends.  ``--only`` keeps just
the named checks of the battery (for the benchmark's smoke tests).  The exit
code is the command's.  contactrel must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tracing import VERIFY_ROOT, Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--only", default=None)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from contactrel import checks, cli

    if args.only:
        keep = set(args.only.split(","))
        checks.CHECKS = tuple(c for c in checks.CHECKS if c[0] in keep)
    if args.spans is None:
        return cli.main(command)

    tracer = Tracer()
    tracer.run_id = 1
    tracer.install()
    try:
        with tracer.span(VERIFY_ROOT):
            return cli.main(command)
    finally:
        tracer.uninstall()
        tracer.save(args.spans)


if __name__ == "__main__":
    sys.exit(main())
