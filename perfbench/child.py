"""Run ``hwgroups.cli`` like ``python -m hwgroups.cli``, timing its phases.

Usage: python3 perfbench/child.py <hwgroups arguments...>

The last line of stderr is ``perfbench-timing {json}`` with the
monotonic clock at start-up (``start``), the time to import
``hwgroups.cli`` (``import_s``) and the time spent in ``main``
(``process_s``).  Stdout and the exit code are those of the command.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

if __name__ == "__main__":
    from hwgroups import cli

    imported = time.monotonic()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        done = time.monotonic()
        sys.stdout.flush()
        sys.stderr.write("perfbench-timing " + json.dumps(
            {"start": START, "import_s": imported - START, "process_s": done - imported}) + "\n")
    sys.exit(code)
