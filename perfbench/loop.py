"""Closed-loop clients and the numbers every workload reports.

A closed loop sends a connection's next statement only when the
previous reply is in, like the paper's client scripts.  Each
:class:`Conn` records one :class:`Record` per statement; a failure
(typed error frame, ``SERVER_BUSY`` refusal, dropped connection) is
counted, never raised, and a wrong answer is a correctness failure,
not an error.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from perfbench.measure import HostClock, mean, median, percentile
from perfbench.spans import Span, Tracer

FAILED = object()
#: Length of one :class:`HostClock` segment of a closed loop.
SEGMENT_S = 1.0


@dataclass
class Record:
    kind: str
    start: float
    end: float
    rows: int
    elapsed: float = 0.0
    reply_bytes: int = 0
    span: Span | None = None
    probe: bool = False

    @property
    def latency(self) -> float:
        return self.end - self.start


class ReplyBytes:
    """Counts reply frame bytes per thread by wrapping the protocol's
    public ``decode_frame`` (which the blocking client calls for every
    frame it reads) while installed."""

    def __init__(self):
        self._local = threading.local()
        self._original = None

    def install(self) -> None:
        from repro.server import protocol

        original = self._original = protocol.decode_frame
        local = self._local

        def decode_frame(payload):
            local.count = getattr(local, "count", 0) + 4 + len(payload)
            return original(payload)

        protocol.decode_frame = decode_frame

    def uninstall(self) -> None:
        from repro.server import protocol

        if self._original is not None:
            protocol.decode_frame = self._original
            self._original = None

    def take(self) -> int:
        count = getattr(self._local, "count", 0)
        self._local.count = 0
        return count


class Conn:
    """One client connection driven by one thread."""

    def __init__(self, connect, tracer: Tracer | None = None,
                 reply_bytes: ReplyBytes | None = None):
        self._connect = connect
        self.client = connect()
        self.tracer = tracer
        self.reply_bytes = reply_bytes
        self.records: list[Record] = []
        self.attempted = 0
        self.failed = 0
        #: Marks the records of the fixed count probe.
        self.probe = False

    def run(self, kind: str, call):
        """Time ``call()``, which returns ``(value, rows, elapsed)``;
        returns the value, or :data:`FAILED`."""
        from repro.server import ProtocolError, ServerError

        self.attempted += 1
        span = None
        if self.tracer is not None:
            span = self.tracer.open("client.statement",
                                    self.tracer.new_stmt())
        start = time.perf_counter()
        try:
            value, rows, elapsed = call()
        except ServerError:
            self.failed += 1
            return FAILED
        except (OSError, ProtocolError):
            self.failed += 1
            self.reconnect()
            return FAILED
        finally:
            end = time.perf_counter()
            if span is not None:
                self.tracer.close(span)
            replied = self.reply_bytes.take() if self.reply_bytes else 0
        self.records.append(Record(kind, start, end, rows, elapsed,
                                   replied, span, self.probe))
        return value

    def reconnect(self) -> None:
        try:
            self.client.close()
        except OSError:
            pass
        self.client = self._connect()

    def close(self) -> None:
        self.client.close()


def run_closed_loop(bodies, seconds: float) -> float:
    """Run each ``body(deadline)`` on its own thread; returns the wall
    time from the common start until the last one returns."""
    errors: list[BaseException] = []
    start = time.perf_counter()
    deadline = start + seconds

    def guarded(body):
        try:
            body(deadline)
        except BaseException as exc:  # re-raised below, on the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(body,))
               for body in bodies]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client thread did not finish")
    if errors:
        raise errors[0]
    return time.perf_counter() - start


def run_segments(bodies, seconds: float, cpus=None,
                 busy=None) -> HostClock:
    """Run the closed loop for ``seconds`` in segments of ``SEGMENT_S``;
    between segments every connection is idle and the host is
    calibrated (``HostClock(cpus, busy)``).  Returns the clock."""
    clock = HostClock(cpus, busy)
    end = time.perf_counter() + seconds
    while (left := end - time.perf_counter()) > 0:
        clock.segment(lambda: run_closed_loop(bodies, min(SEGMENT_S, left)))
    return clock


def run_phases(host, conns: list[Conn], bodies, seconds: float,
               trace: bool, tracer: Tracer, reply_bytes: ReplyBytes,
               cpus=None, busy=None):
    """Run the closed loop against a server process; returns the clock
    of the measured phase and the tracing overhead in percent.

    The clocks are ``HostClock(cpus, busy)``.
    Untraced: one phase of ``seconds``.  Traced: half untraced, then
    half with spans on, at the client and in the server; the drop in
    statement rate between the halves is the tracing overhead.
    """
    if not trace:
        return run_segments(bodies, seconds, cpus, busy), None
    untraced = run_segments(bodies, seconds / 2, cpus, busy)
    rate_a = sum(len(c.records) for c in conns) / untraced.seconds
    for conn in conns:
        conn.records = []
        conn.tracer = tracer
        conn.reply_bytes = reply_bytes
    host.call("trace", on=True)
    reply_bytes.install()
    traced = run_segments(bodies, seconds / 2, cpus, busy)
    rate_b = sum(len(c.records) for c in conns) / traced.seconds
    return traced, 100.0 * (rate_a - rate_b) / rate_a


def scaled_latencies(records: list[Record], clock: HostClock) -> list[float]:
    """Each record's latency in reference seconds."""
    return [clock.scale(r.start, r.latency) for r in records]


def clock_notes(clock: HostClock) -> dict:
    """Raw wall time and the host-speed correction, printed as notes."""
    return {"wall_s": clock.wall, "reference_s": clock.seconds,
            "host_factor_min": min(clock.factors),
            "host_factor_median": median(clock.factors),
            "host_factor_max": max(clock.factors)}


def latency_summary(latencies: list[float], tail_pct: float,
                    label: str) -> dict:
    """Median and the workload's tail percentile, in ms, with the
    sample count and how many samples lie beyond the tail."""
    tail = percentile(latencies, tail_pct)
    return {f"{label}_p50_ms": percentile(latencies, 50) * 1e3,
            f"{label}_tail_ms": tail * 1e3,
            f"{label}_n": len(latencies),
            f"{label}_tail_pct": tail_pct,
            f"{label}_beyond_tail": sum(1 for v in latencies if v > tail)}


def throughput(records: list[Record], clock: HostClock, kinds) -> dict:
    reads = [r for r in records if r.kind in kinds]
    return {"stmt_per_s": len(records) / clock.seconds,
            "scan_rows_per_s": sum(r.rows for r in reads) / clock.seconds}


def attach_host(tracer: Tracer, conns: dict[int, list[Record]],
                report: dict) -> list[tuple[Record, Span, list[int]]]:
    """Move a server process's spans into ``tracer`` under the client
    statement that caused them.

    ``conns`` maps a host session number to that connection's traced
    records in order.  Each host statement root gets a parent
    ``server.request`` span as long as the reply's ``elapsed_seconds``,
    so the client span's self time is the wire and the request span's
    self time is admission and hand-off.  Where that time falls around
    the host root is not known; the span ends with the host root unless
    that would start it before the client sent the statement.
    Returns ``(record, host root span, host reads)`` for every paired
    statement, reads being the host's ``[logical, physical, sequential]``
    buffer-pool deltas.
    """
    by_session: dict[int, list[tuple[int, int]]] = {}
    for stmt, (session, seq, *_reads) in report["stmts"].items():
        by_session.setdefault(session, []).append((seq, int(stmt)))
    target: dict[int, Record] = {}
    for session, ordered in by_session.items():
        records = conns.get(session, [])
        if len(records) != len(ordered):
            continue  # refused statements never reached the session
        for (_seq, stmt), record in zip(sorted(ordered), records):
            target[stmt] = record
    remap: dict[int, Span] = {}
    paired = []
    for span_id, name, start, end, parent, stmt in report["spans"]:
        record = target.get(stmt)
        if record is None or record.span is None:
            continue
        if parent is None:
            first = max(record.start, min(start, end - record.elapsed))
            last = max(end, min(record.end, first + record.elapsed))
            request = tracer.add("server.request", first, last,
                                 record.span)
            span = tracer.add(name, start, end, request)
            paired.append((record, span, report["stmts"][str(stmt)][2:]))
        else:
            span = tracer.add(name, start, end, remap[parent])
        remap[span_id] = span
    return paired


def wire_layers(records: list[Record], paired) -> dict:
    """The server-side split of client latency (microseconds)."""
    return {
        "server.queue_us": median(
            max(0.0, r.elapsed - s.duration) for r, s, _ in paired) * 1e6,
        "server.wire_us": median(
            r.latency - r.elapsed for r in records) * 1e6,
        "protocol.reply_bytes": mean(r.reply_bytes for r in records),
    }


def pool_layers(reads: list[tuple[int, int, int]]) -> dict:
    """Buffer-pool figures over ``(logical, physical, sequential)``
    deltas, one per statement."""
    logical = sum(r[0] for r in reads)
    physical = sum(r[1] for r in reads)
    sequential = sum(r[2] for r in reads)
    return {
        "bufferpool.logical_reads_per_stmt": logical / max(1, len(reads)),
        "bufferpool.physical_reads_per_stmt":
            physical / max(1, len(reads)),
        "bufferpool.hit_ratio":
            1.0 - physical / logical if logical else 0.0,
        "bufferpool.seq_read_share":
            sequential / physical if physical else 0.0,
    }


def median_call_us(name: str, func, inputs) -> float:
    """Median time of ``func(x)`` over ``inputs``, each call a span
    under its own root (microseconds)."""
    tracer = Tracer()
    timed = tracer.wrap(name, func)
    for value in inputs:
        root = tracer.open("probe", tracer.new_stmt())
        timed(value)
        tracer.close(root)
    return median(tracer.durations(name)) * 1e6
