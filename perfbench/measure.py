"""Measurement helpers: percentiles, process memory and I/O, the run record."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys

#: A tail percentile is only reported where at least this many samples lie
#: beyond it, so a handful of outliers cannot set it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Return the ``q``-th percentile (linear interpolation, as numpy's default)."""
    values = sorted(samples)
    if not values:
        raise ValueError("percentile of no samples")
    pos = (len(values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """Return the percentile ``p99_s`` reports for ``n`` samples.

    The 99th where at least ten of the ``n`` samples lie beyond it
    (``n >= 1000``); below that, the ``1 - 10 / n`` quantile, the highest
    on the ``1/n`` grid with ten samples beyond it; never below the median.
    """
    if n < 1:
        raise ValueError("tail quantile of no samples")
    return min(99.0, max(50.0, 100.0 * (1.0 - MIN_SAMPLES_BEYOND / n)))


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def rss_mb() -> float:
    """Return the current resident set size in MB."""
    return _status_kb("VmRSS") / 1024.0


def peak_rss_mb() -> float:
    """Return the peak resident set size since start or the last reset, in MB."""
    return _status_kb("VmHWM") / 1024.0


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS mark to the current RSS (Linux >= 4.0).

    Returns ``False`` where the reset is not permitted; the peak then
    covers the whole process lifetime.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


class PeakTracker:
    """Peak-RSS growth per measured window, above a fixed baseline.

    Each window runs from :meth:`resume` (which resets the kernel's peak
    mark) to :meth:`pause` (which records the window's peak).  Benchmark
    bookkeeping (reference joins, answer checks) runs between windows, so
    it never counts.  :meth:`growth_mb` is the median window's peak above
    the baseline: one op's (or one time slice's) peak memory, which a single
    unlucky overlap of transient buffers cannot set.
    """

    def __init__(self) -> None:
        self.baseline = rss_mb()
        self.resettable = reset_peak_rss()
        self.windows: list[float] = []

    def resume(self) -> None:
        if self.resettable:
            reset_peak_rss()

    def pause(self) -> None:
        self.windows.append(peak_rss_mb() - self.baseline)

    def growth_mb(self) -> float:
        return statistics.median(self.windows)


def io_write_bytes() -> int:
    """Return the bytes this process caused to be written to storage."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
    raise RuntimeError("write_bytes missing from /proc/self/io")


def git_sha(root: str) -> str | None:
    """Return the checkout's commit, or ``None`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_record(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Return the machine and code identity of one benchmark run."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(root),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
    }
