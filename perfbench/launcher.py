"""Start benchmark children one at a time and report what each one used.

Reads one JSON request per line on standard input,
``{"cmd": [...], "env": {...}, "cwd": "...", "log": "...", "timeout": s}``,
runs the command to completion with its output in the log file, and answers
with one JSON line ``{"code", "wall_s", "cpu_s", "peak_rss_mb"}``.  It exits
when standard input closes.

This runs as its own small process because Linux charges the memory a
process held before exec to the peak RSS that wait4 reports.  Children
started by the benchmark itself, which holds numpy, scipy and the generated
inputs, would report that memory as theirs; children of this process carry
only a bare interpreter's.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["log"], "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            request["cmd"], stdout=out, stderr=subprocess.STDOUT, env=request["env"], cwd=request["cwd"]
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
