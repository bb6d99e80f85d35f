"""Run the calabi CLI with the benchmark's tracer installed.

Usage: traced_cli.py TRACE_FILE CLI_ARGS...

Behaves like `python -m calabi.cli CLI_ARGS...` (same stdout and exit
code) and writes the recorded spans to TRACE_FILE as JSON. Needs the
package's source directory on PYTHONPATH.
"""

import json
import sys
from pathlib import Path

import calabi.cli
from tracer import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    code = calabi.cli.main(argv)
    tracer.uninstall()
    Path(trace_file).write_text(json.dumps(tracer.export()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
