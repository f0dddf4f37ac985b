"""Clocks, resource readings and statistics for the benchmark.

Wall time is read through :mod:`repro.obs.clock` (the program's one
sanctioned timer) and every timed region first checks that the active
clock is the real :class:`~repro.obs.clock.SystemClock` — tests and
scenario runners install a ``FakeClock``, which would make every
latency a constant.  CPU time comes from nanosecond clocks: the
process CPU clock for the benchmark process and the scheduler's
``schedstat`` runtime for each live child (pool worker) thread, never
from tick-quantised ``utime``.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.obs.clock import SystemClock, get_clock, perf_counter

# A percentile is reported only when at least this many samples lie
# beyond it.
TAIL_SAMPLES = 10


def wall() -> float:
    """Wall-clock seconds from the program's clock, which must be real."""
    clock = get_clock()
    if type(clock) is not SystemClock:
        raise RuntimeError(
            f"timed region under {type(clock).__name__}; the benchmark "
            "needs the real SystemClock"
        )
    return perf_counter()


def samples_needed(percentile: float, tail: int = TAIL_SAMPLES) -> int:
    """Fewest samples for which ``tail`` of them lie beyond
    ``percentile`` (e.g. 40 for p75 with a tail of 10)."""
    share = 1.0 - percentile / 100.0
    if share <= 0:
        raise ValueError("percentile must be below 100")
    return int(math.ceil(tail / share - 1e-9))


def has_tail(count: int, percentile: float,
             tail: int = TAIL_SAMPLES) -> bool:
    return count >= samples_needed(percentile, tail)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    if not len(values):
        raise ValueError("no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def self_time(total: float, children: Iterable[float]) -> float:
    """A span's own time: its duration minus its direct children's."""
    return total - sum(children)


# -- processes -------------------------------------------------------


def child_pids(pid: int = 0) -> List[int]:
    """Live direct children of ``pid`` (default: this process)."""
    base = Path(f"/proc/{pid or os.getpid()}/task")
    found: List[int] = []
    try:
        tasks = list(base.iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        found.extend(int(p) for p in text.split())
    return sorted(set(found))


def descendant_pids() -> List[int]:
    pending, seen = child_pids(), []
    while pending:
        pid = pending.pop()
        if pid not in seen:
            seen.append(pid)
            pending.extend(child_pids(pid))
    return sorted(seen)


def _schedstat_ns(pid: int) -> int:
    total = 0
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return 0
    for task in tasks:
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (OSError, ValueError, IndexError):
            continue
    return total


def cpu_seconds() -> Dict[int, float]:
    """CPU seconds consumed so far: key 0 is this process (all
    threads), every other key a live descendant process."""
    readings = {0: time.process_time()}
    for pid in descendant_pids():
        readings[pid] = _schedstat_ns(pid) / 1e9
    return readings


def cpu_delta(before: Dict[int, float], after: Dict[int, float]) -> float:
    """CPU seconds spent between two readings.  A process that
    appeared in between counts from zero."""
    return sum(
        value - before.get(pid, 0.0) for pid, value in after.items()
    )


def _status_kb(pid: int, field: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live descendants."""
    kb = _status_kb(os.getpid(), "VmHWM")
    kb += sum(_status_kb(pid, "VmHWM") for pid in descendant_pids())
    return kb / 1024.0


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# -- host diagnostics ------------------------------------------------


def calibration_ms(repeats: int = 3) -> float:
    """Median time of a fixed single-threaded NumPy + Python reference
    loop — a probe of host speed that no change to the program can
    move.  It avoids BLAS calls, whose thread start-up on a busy host
    swamps the probe."""
    data = np.linspace(0.0, 1.0, 20000)
    times = []
    for _ in range(repeats):
        start = wall()
        acc = 0.0
        for i in range(40):
            acc += float(np.sin(data * i).sum())
            acc += sum(j * j for j in range(2000))
        times.append((wall() - start) * 1000.0)
    return float(np.median(times))


def cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (empty if absent)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return []
    return [int(v) for v in fields[1:9]] if fields[:1] == ["cpu"] else []


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of all CPU ticks between two readings stolen by the
    hypervisor."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0
