"""Starts the benchmark's CLI subprocesses from a process that holds nothing else.

    python3 bench/spawner.py

Reads one JSON request {"argv": [...]} per line on stdin, runs
`python -m watchtriage.cli *argv` and answers with one JSON line: the exit
code, stdout, the tail of stderr, the wall time and the largest max-RSS of
the CLI processes so far.

On Linux a process's max-RSS includes the memory of the process that
started it, because exec carries the old address space's high-water mark
over. Started from the benchmark, which holds the set-up's inputs, the
CLI's max-RSS would read the benchmark's memory. This process is smaller
than any CLI process, so what it reports is the CLI's own.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        argv = json.loads(line)["argv"]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "watchtriage.cli", *argv],
                              capture_output=True, text=True)
        seconds = time.perf_counter() - start
        reply = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-200:],
                 "seconds": seconds, "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
