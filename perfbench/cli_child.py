"""Run ``python -m oriconvex <args>`` under a speedometer.

    python3 perfbench/cli_child.py verify --suite all --format json data/connected_n6.g6

The CLI runs as it does from ``python -m oriconvex``: its standard output,
standard error and exit status are its own.  The last line of standard
error is added: ``perfbench-scaled {"wall_s": ..., "cpu_s": ...}``, the
time from importing the package to the end of the command, scaled as in
``calibrate.py``.  Only the interpreter's own start-up is outside it.
"""

from __future__ import annotations

import json
import runpy
import sys

from calibrate import Speedometer

MARK = "perfbench-scaled "


def main() -> int:
    meter = Speedometer()
    code = 1
    with meter.running():
        start = meter.start()
        sys.argv = ["oriconvex", *sys.argv[1:]]
        try:
            runpy.run_module("oriconvex", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            sys.stdout.flush()
            span = meter.stop(start)
    ((wall, cpu),) = meter.scale([span])
    print(MARK + json.dumps({"wall_s": wall, "cpu_s": cpu, "samples": len(meter.samples)}),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
