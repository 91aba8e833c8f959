"""Start commands for the benchmark and account for each one separately.

    python3 bench/launch.py    # reads one JSON request per stdin line

A request is {"argv": [...], "cwd": ..., "stdout": path, "stderr": path,
"timeout": seconds, "all_cpus": bool, "calibrate": bool}; the reply is one JSON line with the
exit status, wall seconds, the child's own user+sys CPU and peak RSS from
``os.wait4``, and "cal_s", the times of the calibration bursts run while the
command ran.

This process pins itself, and so every command it forks, to one CPU.  On a
shared host a CPU's speed changes by tens of percent from moment to moment
and over minutes, and the two CPUs of a small VM change independently.  A
calibration burst is a fixed piece of pure-Python work run on the same CPU
as the command: every CAL_PERIOD_S the command is stopped (SIGSTOP), a burst
runs, and the command continues (SIGCONT).  The stops are left out of the
command's wall time.  The benchmark divides its timings by the mean burst
time, which cancels the machine's speed and keeps the program's.  A command
that ends before the first stop gets one burst right after it.

A request with "all_cpus" runs on every CPU the benchmark was given (the
``--jobs 2`` audit).  It is not stopped, since its workers would run on;
bursts follow it instead, one per CAL_PERIOD_S of its wall time.  A request
with "calibrate" false (the import-time probes) is neither stopped nor
followed by bursts.

Linux carries the pre-exec RSS of the forking process into the child's
``ru_maxrss``, so children are forked from this small process rather than
from run.py, whose memory grows while it checks outputs.
Keep the imports here to the minimum.
"""

import json
import os
import select
import signal
import sys
import time

ALL_CPUS = os.sched_getaffinity(0)
PINNED = {min(ALL_CPUS)}
CAL_ITERS = 40_000
CAL_PERIOD_S = 0.1


def burst() -> float:
    """Seconds a fixed loop of integer arithmetic and dict stores takes."""
    start = time.perf_counter()
    x, d = 1, {}
    for i in range(CAL_ITERS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        d[x & 255] = i
    return time.perf_counter() - start


def run(req: dict) -> dict:
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            if req.get("all_cpus"):
                os.sched_setaffinity(0, ALL_CPUS)
            os.chdir(req["cwd"])
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            for fd, path in ((1, req["stdout"]), (2, req["stderr"])):
                os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), fd)
            os.execv(req["argv"][0], req["argv"])
        finally:
            os._exit(127)
    calibrate = req.get("calibrate", True)
    stop = calibrate and not req.get("all_cpus")
    deadline = start + req["timeout"]
    timed_out, paused, cal = False, 0.0, []
    pidfd = os.pidfd_open(pid)
    exited = select.poll()
    exited.register(pidfd, select.POLLIN)
    try:
        while not exited.poll(CAL_PERIOD_S * 1000):
            if time.perf_counter() > deadline:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            if stop:
                t = time.perf_counter()
                os.kill(pid, signal.SIGSTOP)
                # WNOWAIT: a child that exits instead stays for wait4 below
                state = os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                if state.si_code != os.CLD_STOPPED:
                    break
                os.waitid(os.P_PID, pid, os.WSTOPPED)
                cal.append(burst())
                os.kill(pid, signal.SIGCONT)
                paused += time.perf_counter() - t
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start - paused
    if calibrate and not stop:
        cal = [burst() for _ in range(1 + int(wall / CAL_PERIOD_S))]
    elif stop and not cal:
        cal = [burst()]
    return {
        "rc": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_mb": usage.ru_maxrss / 1024,
        "timed_out": timed_out,
        "cal_s": cal,
    }


def main() -> None:
    os.sched_setaffinity(0, PINNED)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
