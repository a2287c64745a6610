"""Spawns the benchmark's timed child processes, one request per line.

A child's ``ru_maxrss`` starts from the peak resident size of the process
that spawned it, so children are spawned from this small process rather
than from ``run.py``, which holds numpy and the reference
results.  Each request is a JSON line ``{"argv", "cwd", "env", "stderr",
"timeout", "slot"}``; each reply is a JSON line with the exit code, the
wall time from spawn to exit, and the child's CPU time and peak RSS.

The child runs pinned to allowed CPU number ``slot`` (modulo their
count), so that callers can spread invocations over the CPUs: on a shared
host the CPUs slow down in separate phases, and the fastest invocation
then comes from whichever CPU was quiet.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict, cpus: list[int]) -> dict:
    # The child inherits this process's affinity.
    os.sched_setaffinity(0, {cpus[request["slot"] % len(cpus)]})
    with open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> int:
    cpus = sorted(os.sched_getaffinity(0))
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line), cpus)) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
