"""Run one ``grassgeo`` command with tracing, for the traced cli-session run.

Usage: python3 perfbench/cli_shim.py SPANS.json <grassgeo arguments...>

Behaves like ``python -m grassgeo.cli <arguments>`` (same exit code and
output) and writes the command's spans to SPANS.json: a ``cli.import`` span
for ``import grassgeo.cli`` and a ``cli.main`` span around ``main`` with the
layer spans below it.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    idx = tracer.enter(tracer.intern("cli.import"))
    import grassgeo.cli

    tracer.exit(idx)
    restore = tracer.install()
    code = 8
    idx = tracer.enter(tracer.intern("cli.main"))
    try:
        code = grassgeo.cli.main(argv)
    finally:
        tracer.exit(idx, code != 0)
        restore()
        tracer.save_child(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
