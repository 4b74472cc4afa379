"""Starts the benchmark's child processes and reports their resource usage.

    python3 -I bench/spawner.py

reads one JSON request per line on stdin, {"argv", "cwd", "stdout",
"stderr"}, runs that child to exit with its output sent to the two files, and
answers one JSON line: wall time from spawn to exit, user+sys CPU time, peak
RSS and exit status, the last three from `os.wait4`.  It exits at the end of
stdin.

Children are started here rather than from the runner because Linux counts
the resident size of the process a child is forked from, up to its exec, in
the child's `ru_maxrss`.  The runner holds the generated input and its
reference counts; this process stays small, so a child's peak RSS is its own.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, cwd=request["cwd"])
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall_s = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "wall_s": wall_s,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "code": proc.returncode,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
