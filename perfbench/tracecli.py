"""Run one sestrack CLI call in a fresh interpreter with the layer tracer on.

usage: python tracecli.py SPANS_JSON ARGV...

Imports sestrack (from PYTHONPATH), installs the tracer, runs
``sestrack.cli.main(ARGV)``, writes the recorded spans to SPANS_JSON and
exits with the command's exit code.  The traced ``cli_cold_start`` run uses
it in place of ``python -m sestrack``.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import sestrack.cli

    tracer = Tracer()
    with tracer.installed():
        code = sestrack.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.take(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
