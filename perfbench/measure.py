"""Shared measurement helpers: percentiles, memory, space, the host
calibration loop, the host-speed clock, CPU placement and the pinned
environment."""

from __future__ import annotations

import bisect
import contextlib
import os
import platform
import statistics
import time

#: Stored bytes per value of each numeric column type.  Raw user
#: payload counts numbers at these widths; array blobs count 8 bytes
#: per float64 element, so header and page overhead is amplification.
VALUE_BYTES = {"bigint": 8, "int": 4, "float": 8}


def pin_environment() -> dict[str, str]:
    """Remove every ``REPRO_*`` variable from this process, the mode
    knobs (``REPRO_ENGINE``, ``REPRO_WIRE``, ``REPRO_MVCC``,
    ``REPRO_LATCH``, ``REPRO_SHARD_REPLICAS``, ``REPRO_WORKERS``)
    included, so runs never mix modes; children inherit the cleaned
    environment.  Returns what was removed."""
    return {name: os.environ.pop(name)
            for name in sorted(os.environ) if name.startswith("REPRO_")}


def environment_record(seed: int, cleared: dict[str, str]) -> dict:
    import numpy
    return {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "cleared": cleared}


def calibration_ms() -> float:
    """Median of three runs of a fixed pure-Python loop.  Diagnostic
    only: it lets a reader tell host drift from a program change."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


#: Median :func:`host_kernel` time on the reference machine (2 vCPUs at
#: 2.1 GHz, Python 3.11.7).  :class:`HostClock` reports time in seconds
#: of that machine.
REFERENCE_KERNEL_S = 0.0100


def host_kernel() -> float:
    """One run of a fixed pure-Python loop (about 10 ms), in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - start


class HostClock:
    """Wall time corrected for the host's speed.

    The host's speed drifts by up to a factor of 2 over seconds to
    minutes, and each CPU drifts on its own, which would swamp any
    program change.  So the work is measured in segments, with no load
    between them, and :func:`host_kernel` runs on each of ``cpus`` (the
    CPUs the work runs on; all of them by default) before the first
    segment and after each one.  A CPU's factor for a segment is
    ``REFERENCE_KERNEL_S`` over its mean kernel time around it; the
    segment's factor is the mean of the CPUs' factors, weighted by the
    CPU seconds each spent on the segment when ``busy()`` tells them (a
    list, one cumulative figure per CPU), else equally.  A time measured
    in a segment times its factor reads as seconds on the reference
    machine.  The kernel runs none of the program, so a change to the
    program shows in full.
    """

    def __init__(self, cpus=None, busy=None):
        self.cpus = list(cpus or sorted(os.sched_getaffinity(0)))
        self.busy = busy
        self.starts: list[float] = []
        self.factors: list[float] = []
        self.wall = 0.0     #: raw seconds inside the segments
        self.seconds = 0.0  #: the same, in reference seconds
        self._last: list[float] | None = None

    def calibrate(self) -> list[float]:
        """Kernel time on each of ``cpus``, pinned in turn."""
        saved = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(host_kernel())
        finally:
            os.sched_setaffinity(0, saved)
        return times

    def segment(self, work):
        """Run ``work()`` as one segment; returns its result."""
        before = self._last if self._last is not None else self.calibrate()
        used = self.busy() if self.busy else None
        start = time.perf_counter()
        result = work()
        took = time.perf_counter() - start
        weights = ([b - a for a, b in zip(used, self.busy())] if used
                   else [1.0] * len(self.cpus))
        if sum(weights) <= 0:
            weights = [1.0] * len(self.cpus)
        self._last = self.calibrate()
        factor = sum(w * 2 * REFERENCE_KERNEL_S / (a + b) for w, a, b
                     in zip(weights, before, self._last)) / sum(weights)
        self.starts.append(start)
        self.factors.append(factor)
        self.wall += took
        self.seconds += took * factor
        return result

    def scale(self, at: float, seconds: float) -> float:
        """``seconds`` measured in the segment running at time ``at``,
        in reference seconds."""
        i = max(0, bisect.bisect_right(self.starts, at) - 1)
        return seconds * self.factors[i]

    def timed(self, work) -> tuple[float, object]:
        """Run ``work()`` as one segment; returns its reference seconds
        and its result."""
        seconds = self.seconds
        result = self.segment(work)
        return self.seconds - seconds, result


def cpu_seconds(pid: int | None = None) -> float:
    """User plus system CPU time of a process so far, in seconds."""
    with open(f"/proc/{pid or 'self'}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@contextlib.contextmanager
def pinned():
    """Run the calling thread, and the threads and processes it starts,
    on the first CPU this process may use.  Yields that CPU, then the
    next one, for a server process, if there is one."""
    saved = os.sched_getaffinity(0)
    cpus = sorted(saved)
    os.sched_setaffinity(0, {cpus[0]})
    try:
        yield cpus[:2]
    finally:
        os.sched_setaffinity(0, saved)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (``numpy.percentile`` default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def peak_rss_mib(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def raw_payload_bytes(db, array_elements: dict[str, int]) -> int:
    """User bytes stored in ``db``: numeric columns at their width, an
    array column at 8 bytes per element (``array_elements`` maps table
    name to elements per row)."""
    return sum(row_payload_bytes(table, array_elements.get(name, 0))
               * table.row_count for name, table in db.tables.items())


def row_payload_bytes(table, array_elements: int = 0) -> int:
    """User bytes in one row of ``table``."""
    return (sum(VALUE_BYTES.get(col.type, 0) for col in table.columns)
            + 8 * array_elements)


def space_amp(db, array_elements: dict[str, int],
              history_pages: int = 0) -> float:
    """Pages held (allocated plus retained old versions) times
    ``PAGE_SIZE`` over the raw user payload."""
    from repro.engine.constants import PAGE_SIZE
    pages = db.pagefile.allocated_page_count + history_pages
    return pages * PAGE_SIZE / raw_payload_bytes(db, array_elements)


def log(*parts) -> None:
    """Diagnostic output: stdout, never the last line."""
    print(*parts, flush=True)
