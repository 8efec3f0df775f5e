"""Environment discipline and the statistics every workload shares.

Nothing here knows about the engine: core pinning, busy warm-up,
``/proc`` readers for CPU time and peak RSS, the nearest-rank
percentile, the machine-drift calibration kernel and the environment
stamp that goes into every result file.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
import time

import numpy as np

__all__ = [
    "pin_to_one_core",
    "require_same_core",
    "busy_warmup",
    "cpu_seconds",
    "vm_hwm_mb",
    "percentile",
    "median",
    "spread_pct",
    "calib_ms",
    "environment",
]

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def pin_to_one_core() -> int:
    """Pin the calling process to the last core of its mask and return
    that core.

    Children inherit the mask, so the closed-loop client, the server
    child and the doomed updater all take turns on one core.  They are
    never busy at the same time, and a sleeping core of this kind of VM
    takes 50-100 us to wake: with the server on a core of its own an
    ``eq`` read over the wire took 656 us instead of 510 us and spread
    four times as much from run to run (perf/README.md, "One core").
    The last core, because the first one serves most timer and network
    interrupts.
    """
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def require_same_core(pid: int) -> None:
    """Raise unless every thread of ``pid`` has the caller's mask."""
    own = os.sched_getaffinity(0)
    for tid in os.listdir(f"/proc/{pid}/task"):
        mask = os.sched_getaffinity(int(tid))
        if mask != own:
            raise RuntimeError(
                f"thread {tid} of process {pid} runs on {sorted(mask)}, "
                f"the bench process on {sorted(own)}")


def busy_warmup(step, seconds: float) -> int:
    """Call ``step()`` back to back for at least ``seconds`` of wall
    time; returns the number of calls.  The first seconds of work after
    an idle spell run 15-18 % faster on this kind of box, so nothing is
    timed until the process has been busy for a while."""
    deadline = time.perf_counter() + seconds
    calls = 0
    while True:
        step()
        calls += 1
        if time.perf_counter() >= deadline:
            return calls


def _stat_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        # The command name (field 2) may contain spaces; fields after
        # the closing parenthesis are space separated from field 3 on.
        return fh.read().rsplit(")", 1)[1].split()


def cpu_seconds(children: tuple[int, ...] = ()) -> float:
    """User + system CPU seconds of this process, of every child it has
    already reaped, and of the live ``children`` pids."""
    fields = _stat_fields(os.getpid())
    # utime, stime, cutime, cstime are fields 14-17 (1-based).
    ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
    for pid in children:
        try:
            child = _stat_fields(pid)
        except (FileNotFoundError, ProcessLookupError):
            continue
        ticks += int(child[11]) + int(child[12])
    return ticks / _CLK_TCK


def vm_hwm_mb(pid: int | None = None) -> float:
    """Peak resident set size (``VmHWM``) of a process in MiB."""
    with open(f"/proc/{pid or os.getpid()}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by the kernel")


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    # The epsilon keeps float fuzz (0.95 * 60 = 57.00000000000001) from
    # pushing the rank one past the exact product.
    rank = max(1, math.ceil(len(ordered) * fraction - 1e-9))
    return ordered[min(len(ordered), rank) - 1]


median = statistics.median


def spread_pct(values) -> float:
    """(max - min) / median of a sample, in percent."""
    centre = statistics.median(values)
    return 100.0 * (max(values) - min(values)) / centre if centre else 0.0


def calib_ms() -> float:
    """A fixed Python + numpy kernel; the same work every call, so its
    time at run start and end witnesses how fast the machine itself is
    (it drifts by several percent over a minute on a shared box)."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    grid = np.arange(400_000, dtype=np.float64)
    for _ in range(5):
        total += float(np.sort(grid[::-1] * 1.0001)[17])
    if total < 0:  # keep the work observable
        raise AssertionError
    return (time.perf_counter() - start) * 1e3


def _git_sha() -> str:
    """Commit of the checkout, read from ``.git`` directly (no
    subprocess, nothing outside the checkout); ``"none"`` without one."""
    git = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="ascii") as fh:
                head = fh.read().strip()
    except OSError:
        return "none"
    return head[:12] or "none"


def environment(seed: int, core: int) -> dict:
    """What a reader needs to judge whether two results are comparable;
    ``core`` is the one the bench process and its children share."""
    return {
        "nproc": os.cpu_count(),
        "core": core,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": _git_sha(),
        "seed": seed,
        "argv": sys.argv[1:],
    }
