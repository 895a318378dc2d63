"""Spawns the benchmark's child processes and reports what each one cost.

run.py holds numpy, the checker and, in the traced run, whole circuits. On
Linux a process keeps the high-water RSS of the address space it had before
exec, so a child spawned straight from run.py would report run.py's peak as
its own ``ru_maxrss``. This process stays small, and ``os.wait4`` on each of
its children gives that child's own peak.

Protocol, one JSON object per line: requests on stdin, ``{"argv": [...],
"env": {...}, "stdout": path, "stderr": path, "timeout": seconds}``; replies on
stdout, ``{"wall": seconds, "exit_code": n, "maxrss_kb": n}``. The wall time
runs from spawn to exit. A child still running at its timeout is killed.
"""

import json
import os
import signal
import sys
import threading
import time

_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(request: dict) -> dict:
    out = os.open(request["stdout"], _FLAGS, 0o644)
    err = os.open(request["stderr"], _FLAGS, 0o644)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(
            request["argv"][0], request["argv"], request["env"],
            file_actions=[
                (os.POSIX_SPAWN_CLOSE, 0),
                (os.POSIX_SPAWN_DUP2, out, 1),
                (os.POSIX_SPAWN_DUP2, err, 2),
            ],
        )
        watchdog = threading.Timer(request["timeout"], os.kill, (pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    finally:
        os.close(out)
        os.close(err)
    return {"wall": wall, "exit_code": os.waitstatus_to_exitcode(status), "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
