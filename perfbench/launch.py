"""Run one command to exit; print its wall time, CPU time and peak RSS.

    python3 perfbench/launch.py STDOUT_FILE STDERR_FILE COMMAND...

prints {"wall_s", "cpu_s", "rss_mb", "code"} as JSON.  Wall time runs
from launching the command to its exit; CPU time and peak RSS come from
wait4 and cover the command and every child it reaped.

The benchmark launches each measured process through this script.  A
child's ru_maxrss starts from the memory high-water mark of the process
that spawned it, so the spawner must stay smaller than anything it
measures: this script imports almost nothing, where the benchmark
itself is larger than the smallest divlab run.
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    out_path, err_path, command = argv[0], argv[1], argv[2:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                      "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
