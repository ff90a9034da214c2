"""Run one ``gapdet`` CLI request under the benchmark's tracer.

Usage: python3 bench/driver.py TRACE_JSON ARGV...

Installs the tracer's wrappers, calls ``gapdet.cli.main(ARGV)`` inside a
``cli.main`` span, writes the spans and counters to TRACE_JSON and exits
with the CLI's own code.  Everything before the span (interpreter start,
imports, wrapper installation) is the request's start-up time.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import gapdet.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.span("cli.main"):
        code = gapdet.cli.main(argv)
    tracer.uninstall()
    Path(trace_path).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
