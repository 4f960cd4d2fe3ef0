"""Run the rooplpp command line in a fresh process and time it."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT_S = 60.0
# Wall time of `python -c pass` at the reference speed (one 2.1 GHz x86-64
# core, Python 3.11).
REFERENCE_START_S = 0.045


@dataclass
class Call:
    code: int          # exit code; negative for a signal
    wall_s: float      # process start to exit, seen from the parent
    maxrss_kb: int     # ru_maxrss of this child alone
    stdout: str
    stderr: str
    timed_out: bool


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_argv(*args) -> list[str]:
    return [sys.executable, "-m", "rooplpp.cli", *map(str, args)]


def invoke(argv, work: Path, timeout=TIMEOUT_S) -> Call:
    """Run argv to completion, one process at a time.

    Output goes to files rather than pipes so that the child never blocks
    on a full pipe while the parent sits in wait4.
    """
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work,
                                env=child_env())
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(proc.returncode, wall, usage.ru_maxrss,
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"),
                bool(killed))


def pin_to_one_cpu():
    """Run this process and every child it starts on one CPU, so that the
    speed measured between calls is that of the CPU the calls run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def start_s(work: Path) -> float:
    """Wall time of a bare interpreter start: the machine's speed now."""
    return invoke([sys.executable, "-c", "pass"], work).wall_s


class SpeedScale:
    """Scales wall times to the reference speed of a bare interpreter start.

    On a shared machine the speed of the same code drifts by tens of
    percent over minutes.  A bare ``python -c pass`` runs between calls,
    so each call is bracketed by one start before and one after it, and
    its wall time is multiplied by REFERENCE_START_S over their mean.
    Nothing in the repository can change how long a bare start takes.
    """

    def __init__(self, work: Path):
        self.work = work
        self.last = start_s(work)

    def __call__(self, wall_s: float) -> float:
        after = start_s(self.work)
        factor = REFERENCE_START_S / ((self.last + after) / 2)
        self.last = after
        return wall_s * factor
