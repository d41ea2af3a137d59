"""Run commands one after another and report what each one cost.

Reads ``{"argvs": [...], "logs": [...], "env": {...}, "cwd": ..., "timeout":
seconds}`` as JSON from standard input and writes ``{"wall_s": ..., "ops":
[{"code", "cpu_s", "maxrss_kib"}, ...]}`` to standard output.  ``wall_s``
runs from the first process start to the last process exit.

This process stays small on purpose.  On Linux the peak resident set that
``wait4`` reports for a child includes the high-water mark of the memory it
was spawned from, so commands started by a process that once held a large
table would all seem to peak at that size.  The benchmark therefore starts
its command processes from here and imports nothing heavy.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main():
    job = json.load(sys.stdin)
    ops = []
    started = time.perf_counter()
    for argv, log in zip(job["argvs"], job["logs"]):
        with open(log, "wb") as fh:
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=job["env"], cwd=job["cwd"])
        timer = threading.Timer(job["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        ops.append({"code": proc.returncode, "cpu_s": usage.ru_utime + usage.ru_stime,
                    "maxrss_kib": usage.ru_maxrss})
    json.dump({"wall_s": time.perf_counter() - started, "ops": ops}, sys.stdout)


if __name__ == "__main__":
    main()
