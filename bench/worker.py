"""Executor for the benchmark's in-process calls, in a process of its own.

    python3 bench/worker.py --trace 0|1

Reads one JSON request {"argv": [...], "bundle": id} per line on stdin,
times `watchtriage.cli.main(argv)` with stdout and stderr captured to
buffers, and answers with one JSON line on stdout, which also carries this
process's peak resident set. With --trace 1 every
layer entry point is wrapped (bench/spans.py) and the reply carries the
call's spans and counts.

The calls do not run in the benchmark's own process because there they were
measured up to half again as slow, and much less steady, as in a process
that holds nothing but watchtriage: the set-up's scenarios, expectations and
bundles made the program's allocation and memory access slower.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from watchtriage import cli  # noqa: E402

import spans  # noqa: E402


def peak_rss_kb() -> int:
    """This process's own peak resident set (VmHWM), in KiB.

    Not ru_maxrss, which also counts the memory of the process that
    started this one.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def call(argv, tracer) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - reported as a failure
            code = repr(exc)
        seconds = time.perf_counter() - start
    reply = {"code": code, "seconds": seconds, "stdout": out.getvalue()}
    if tracer is not None:
        reply["spans"] = [(s.name, s.start, s.end, s.parent, s.bundle, s.self_time) for s in tracer.spans]
        reply["counts"] = dict(tracer.counts)
    return reply


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.instrument(tracer)
    for line in sys.stdin:
        request = json.loads(line)
        if tracer is not None:
            tracer.reset()
            tracer.bundle = request["bundle"]
        reply = call(request["argv"], tracer)
        reply["peak_rss_kb"] = peak_rss_kb()
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
