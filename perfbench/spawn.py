"""Runs one command and reports its wall time, CPU time and peak memory.

    python3 perfbench/spawn.py <report fd> <command> [<argument> ...]

The command inherits stdin, stdout and stderr.  When it ends, one JSON line
goes to the file descriptor <report fd>: its wall time, its user + system
CPU time and `ru_maxrss` from os.wait4, its exit code, and time.monotonic()
at its start and end.

Linux carries the memory high-water mark of the process that starts a child
into the child's `ru_maxrss`.  The benchmark process (run.py) grows as it
checks megabytes of output, so it starts every child through this small
process, whose own mark stays below that of any qeuler invocation.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    report = int(sys.argv[1])
    start, clock = time.monotonic(), time.perf_counter()
    proc = subprocess.Popen(sys.argv[2:])
    _, status, usage = os.wait4(proc.pid, 0)
    wall, end = time.perf_counter() - clock, time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with os.fdopen(report, "w") as out:
        json.dump({"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                   "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode,
                   "start": start, "end": end}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
