"""``wire_lookup`` and ``wire_ingest``: one server process, two
closed-loop connections, warm reads.

``wire_lookup`` is per-statement overhead: 70 % point SELECTs on
plain ``query`` frames (re-planned every call) with keys uniform over
Tvector, and 30 % 8^3 windows read out of 64 32^3 float64 cubes stored
as ``varbinary(max)``.  Parse/plan, framing, dispatch, B-tree descent
and blob-stream reads dominate; there is almost no scan work.

``wire_ingest`` is the write path beside reads on the same table: one
connection sends 10-row ``INSERT ... VALUES (k, FloatArray.Vector_5(...))``
statements at ascending keys above the loaded range, the other sends
point lookups and 100-key range aggregates, half of them over the most
recently inserted keys.  Every range read must see whole statements
only (no torn reads).

``wire_ingest`` runs the client on one CPU and the server on the other;
``wire_lookup`` leaves both to the scheduler.  Each is the placement
whose figures spread less from run to run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from perfbench import data
from perfbench.host import start_hosts
from perfbench.loop import (FAILED, Conn, ReplyBytes, attach_host,
                            clock_notes, latency_summary, median_call_us,
                            pool_layers, run_phases, scaled_latencies,
                            throughput, wire_layers)
from perfbench.measure import (HostClock, cpu_seconds, mean, median,
                               pinned)
from perfbench.report import Outcome, write_trace
from perfbench.spans import Tracer

#: Statement mixes run in rounds: each round is a seeded shuffle of one
#: of these, so each class's share is exact in every run.
#: ``wire_lookup``: 70 % point SELECTs, 30 % windows.
LOOKUP_ROUND = ("point",) * 7 + ("window",) * 3
#: Tail percentiles sit inside the slowest statement class (windows on
#: ``wire_lookup``, range aggregates on ``wire_ingest``), not on the
#: boundary between two classes, where they would jump between them.
LOOKUP_TAIL_PCT = 90.0
INGEST_TAIL_PCT = 90.0
#: ``wire_ingest`` reader: 80 % point lookups, 20 % range aggregates
#: (full snapshot scans, about 100 times a point lookup): per round one
#: over the most recent inserts and one over the loaded keys.
READ_ROUND = ("point",) * 8 + ("recent", "loaded")
RECENT_STATEMENTS = 10

#: Statements of each kind in the fixed probe that gives the count
#: metrics (pages per lookup and per window, bytes per window).
PROBE = 40
SETUPS = 3
CONNECTIONS = 2


@dataclass
class Sizes:
    rows: int = data.ROWS
    cubes: int = data.CUBES
    edge: int = data.CUBE_EDGE


def connect_to(port):
    from repro.server import ArrayClient

    def connect():
        client = ArrayClient("127.0.0.1", port, timeout=60.0)
        read = client._read_bquery

        def capture(header):
            # query_array keeps the window's BlobSlice (rows, wire
            # bytes, elapsed) to itself; keep the last one here.
            client.last_slice = read(header)
            return client.last_slice

        client._read_bquery = capture
        return client
    return connect


def _window_op(conn: Conn, cubes: np.ndarray, rng, edge: int, wrong: list):
    """One 8^3 window: must be bit-identical to the numpy slice."""
    cube = int(rng.integers(len(cubes)))
    offset = [int(o) for o in rng.integers(0, edge - data.WINDOW_EDGE + 1, 3)]
    size = [data.WINDOW_EDGE] * 3

    def call():
        client = conn.client
        got = client.query_array(data.CUBE_SQL.format(cube), cold=False,
                                 slice=(offset, size))
        blob = client.last_slice
        return got, blob.metrics["rows"], blob.elapsed_seconds

    got = conn.run("window", call)
    if got is FAILED:
        return None
    want = cubes[cube][tuple(slice(o, o + data.WINDOW_EDGE) for o in offset)]
    if got.dtype != want.dtype or not np.array_equal(got, want):
        wrong.append(f"window {cube} {offset} differs from the numpy slice")
    return conn.client.last_slice


def rounds(kinds: tuple, rng):
    """Endless statement kinds, one seeded shuffle of ``kinds`` at a
    time."""
    while True:
        for i in rng.permutation(len(kinds)):
            yield kinds[i]


def _query(conn: Conn, kind: str, sql: str):
    def call():
        result = conn.client.query(sql, cold=False)
        rows = result.metrics["rows"] if result.metrics else 0
        if kind == "insert":
            rows = result.rowcount
        return result, rows, result.elapsed_seconds
    return conn.run(kind, call)


def _point_op(conn: Conn, values: np.ndarray, rng, wrong: list) -> None:
    key = int(rng.integers(len(values)))
    item = int(rng.integers(5))
    result = _query(conn, "point", data.POINT_SQL.format(item, key))
    if result is not FAILED and result.scalar() != values[key, item]:
        wrong.append(f"point {key}/{item}: {result.scalar()!r}")


# -- set-up -------------------------------------------------------------------

def _busy(cpus: list[int], host):
    """CPU seconds of this process and of the server, one figure for
    each of the CPUs :func:`pinned` gave them, for :class:`HostClock`."""
    if len(cpus) == 1:
        return None
    return lambda: [cpu_seconds(), cpu_seconds(host.proc.pid)]


def _catalog_session():
    """A session over empty copies of the served tables, for timing
    ``plan_select`` and ``parse_insert`` on the workload's texts."""
    from table1_harness import load_tables

    from repro.engine import SqlSession

    db, _ts, _tv = load_tables(0)
    data.create_cube_table(db)
    return SqlSession(db)


# -- the traced run -----------------------------------------------------------

def _finish_trace(root, workload, seed, tracer, conns, report,
                  records) -> tuple[dict, list]:
    """Pair the server's spans with the client's, write the trace and
    return the server-side layer figures with the pairs."""
    sessions = {c.client.session_id: [r for r in c.records if r.span]
                for c in conns}
    paired = attach_host(tracer, sessions, report)
    layers = wire_layers(records, paired)
    layers["engine.session_us"] = median(
        s.duration for _r, s, _reads in paired) * 1e6
    write_trace(root, workload, seed, tracer)
    return layers, paired


def _probe_reads(paired, kind: str) -> list:
    """Host buffer-pool reads of the probe statements of one kind."""
    return [reads for r, _s, reads in paired if r.probe and r.kind == kind]


# -- wire_lookup --------------------------------------------------------------

def run_lookup(root: str, seed: int, seconds: float, trace: bool,
               sizes: Sizes | None = None, server: dict | None = None):
    sizes = sizes or Sizes()
    values = data.table1_values(sizes.rows)
    cubes = data.make_cubes(seed, sizes.cubes, sizes.edge)
    wrong: list[str] = []
    host, setup_s = start_hosts(root, "wire", seed, SETUPS, HostClock(),
                                rows=sizes.rows, cubes=sizes.cubes,
                                edge=sizes.edge, **(server or {}))
    with host:
        conns = [Conn(connect_to(host.port)) for _ in range(CONNECTIONS)]

        def body(conn, rng):
            def loop(deadline):
                for kind in rounds(LOOKUP_ROUND, rng):
                    if time.perf_counter() >= deadline:
                        return
                    if kind == "point":
                        _point_op(conn, values, rng, wrong)
                    else:
                        _window_op(conn, cubes, rng, sizes.edge, wrong)
            return loop

        bodies = [body(conn, np.random.default_rng([seed, 2, c]))
                  for c, conn in enumerate(conns)]
        tracer, reply_bytes = Tracer(), ReplyBytes()
        try:
            clock, overhead = run_phases(host, conns, bodies, seconds,
                                         trace, tracer, reply_bytes)
            records = [r for c in conns for r in c.records]
            layers = {}
            if trace:
                probe_rng = np.random.default_rng([seed, 3])
                conns[0].probe = True
                for _ in range(PROBE):
                    _point_op(conns[0], values, probe_rng, wrong)
                blobs = [_window_op(conns[0], cubes, probe_rng, sizes.edge,
                                    wrong) for _ in range(PROBE)]
                reply_bytes.uninstall()
                host.call("trace", on=False)
            report = host.call("report")
            if trace:
                layers, paired = _finish_trace(
                    root, "wire_lookup", seed, tracer, conns, report,
                    records)
                points = _probe_reads(paired, "point")
                windows = _probe_reads(paired, "window")
                layers.update(pool_layers(points + windows))
                layers["btree.pages_per_lookup"] = mean(r[0] for r in points)
                layers["blob.pages_per_window"] = mean(r[0] for r in windows)
                layers["blob.bytes_per_window"] = mean(
                    b.wire_bytes for b in blobs if b is not None)
                texts = [data.POINT_SQL.format(i % 5, i * 997 % sizes.rows)
                         for i in range(100)]
                texts += [data.CUBE_SQL.format(i % sizes.cubes)
                          for i in range(100)]
                session = _catalog_session()
                layers["sqlfront.plan_us"] = median_call_us(
                    "sqlfront.plan_select", session.plan_select, texts)
                layers["trace.overhead_pct"] = overhead
        finally:
            reply_bytes.uninstall()
            for conn in conns:
                conn.close()
    reads = [r for r in records if r.kind in ("point", "window")]
    summary = latency_summary(scaled_latencies(reads, clock),
                              LOOKUP_TAIL_PCT, "read")
    end_to_end = {
        "setup_s": setup_s,
        **throughput(records, clock, ("point", "window")),
        "read_p50_ms": summary["read_p50_ms"],
        "read_tail_ms": summary["read_tail_ms"],
        "server_rss_mb": report["rss_mb"],
        "space_amp": report["space_amp"],
    }
    return Outcome(end_to_end, layers,
                   attempted=sum(c.attempted for c in conns),
                   failed=sum(c.failed for c in conns), wrong=wrong,
                   notes={**summary, **clock_notes(clock)})


# -- wire_ingest --------------------------------------------------------------

class _Ingest:
    """Writer state shared with the reader: the acknowledged key
    watermark and every inserted value, in key order."""

    def __init__(self, rows: int, rng):
        self.rows = rows
        self.rng = rng
        self.acked = rows  # keys below this are acknowledged
        self.inserted: list[np.ndarray] = []

    def write(self, conn: Conn) -> None:
        values = data.insert_values(self.rng)
        result = _query(conn, "insert", data.insert_sql(self.acked, values))
        if result is FAILED:
            return
        self.inserted.append(values)
        self.acked += data.INSERT_ROWS


def _range_op(conn: Conn, ingest: _Ingest, rng, recent: bool,
              ranges: list) -> None:
    if recent:
        stmts = (ingest.acked - ingest.rows) // data.INSERT_ROWS
        first = int(rng.integers(max(0, stmts - RECENT_STATEMENTS),
                                 stmts + 1))
        lo = ingest.rows + first * data.INSERT_ROWS
    else:
        lo = int(rng.integers(0, ingest.rows - 100))
    acked_before = ingest.acked
    result = _query(conn, "range", data.RANGE_SQL.format(lo, lo + 100))
    if result is not FAILED:
        total, count = result.rows[0]
        ranges.append((lo, total, count, acked_before, ingest.acked))


def _check_ranges(ranges, ingest: _Ingest, column: np.ndarray,
                  wrong: list) -> None:
    """Every range read sees whole INSERT statements and the exact sum
    of the rows it counts (``column``: item 0 of every row by key)."""
    for lo, total, count, acked_before, acked_after in ranges:
        loaded_part = max(0, min(lo + 100, ingest.rows) - lo)
        visible = count - loaded_part
        start = max(lo, ingest.rows)
        watermark = start + visible
        if visible < 0 or (watermark - ingest.rows) % data.INSERT_ROWS \
                or not min(acked_before, lo + 100) <= watermark \
                <= acked_after + data.INSERT_ROWS:
            wrong.append(f"range [{lo}, {lo + 100}) saw {count} rows "
                         f"(acknowledged {acked_before}..{acked_after})")
            continue
        want = data.sequential_sum(column[lo:lo + count]) if count else None
        if total != want:
            wrong.append(f"range [{lo}, {lo + 100}) sum {total!r} != {want!r}")


def run_ingest(root: str, seed: int, seconds: float, trace: bool,
               sizes: Sizes | None = None, server: dict | None = None):
    with pinned() as cpus:
        return _run_ingest(root, seed, seconds, trace, sizes or Sizes(),
                           server, cpus)


def _run_ingest(root, seed, seconds, trace, sizes, server, cpus):
    values = data.table1_values(sizes.rows)
    wrong: list[str] = []
    host, setup_s = start_hosts(root, "wire", seed, SETUPS,
                                HostClock(cpus[-1:]), cpu=cpus[-1],
                                rows=sizes.rows, cubes=sizes.cubes,
                                edge=sizes.edge, **(server or {}))
    busy = _busy(cpus, host)
    ingest = _Ingest(sizes.rows, np.random.default_rng([seed, 4]))
    ranges: list = []
    with host:
        writer, reader = (Conn(connect_to(host.port)) for _ in range(2))
        conns = [writer, reader]
        read_rng = np.random.default_rng([seed, 5])

        def write_loop(deadline):
            while time.perf_counter() < deadline:
                ingest.write(writer)

        def read_loop(deadline):
            for kind in rounds(READ_ROUND, read_rng):
                if time.perf_counter() >= deadline:
                    return
                if kind == "point":
                    _point_op(reader, values, read_rng, wrong)
                else:
                    _range_op(reader, ingest, read_rng, kind == "recent",
                              ranges)

        tracer, reply_bytes = Tracer(), ReplyBytes()
        try:
            clock, overhead = run_phases(
                host, conns, [write_loop, read_loop],
                seconds, trace, tracer, reply_bytes, cpus, busy)
            records = [r for c in conns for r in c.records]
            if trace:
                probe_rng = np.random.default_rng([seed, 3])
                reader.probe = True
                for _ in range(PROBE):
                    _point_op(reader, values, probe_rng, wrong)
                reply_bytes.uninstall()
                host.call("trace", on=False)
            final = reader.client.query(data.RANGE_SQL.format(
                sizes.rows, ingest.acked), cold=False).rows[0]
            report = host.call("report")
            layers = {}
            if trace:
                layers, paired = _finish_trace(
                    root, "wire_ingest", seed, tracer, conns, report,
                    records)
                points = _probe_reads(paired, "point")
                layers.update(pool_layers(points))
                layers["btree.pages_per_lookup"] = mean(r[0] for r in points)
                for name in ("table.prepare_insert", "table.apply_insert"):
                    layers[f"{name}_us"] = median(
                        tracer.durations(name)) * 1e6
                layers["pagefile.history_pages"] = report["history_pages"]
                session = _catalog_session()
                texts = [data.POINT_SQL.format(i % 5, i * 997 % sizes.rows)
                         for i in range(100)]
                texts += [data.RANGE_SQL.format(i * 991 % sizes.rows,
                                                i * 991 % sizes.rows + 100)
                          for i in range(100)]
                layers["sqlfront.plan_us"] = median_call_us(
                    "sqlfront.plan_select", session.plan_select, texts)
                text_rng = np.random.default_rng([seed, 6])
                layers["sqlfront.parse_insert_us"] = median_call_us(
                    "sqlfront.parse_insert", session.parse_insert,
                    [data.insert_sql(sizes.rows + 10 * i,
                                     data.insert_values(text_rng))
                     for i in range(100)])
                layers["trace.overhead_pct"] = overhead
        finally:
            reply_bytes.uninstall()
            for conn in conns:
                conn.close()
    column = np.concatenate([values[:, 0]]
                            + [v[:, 0] for v in ingest.inserted])
    _check_ranges(ranges, ingest, column, wrong)
    # Every acknowledged key must be readable at the end.
    if tuple(final) != (data.sequential_sum(column[sizes.rows:]),
                        ingest.acked - sizes.rows):
        wrong.append(f"after the run {final[1]} rows (sum {final[0]!r}) "
                     f"of {ingest.acked - sizes.rows} acknowledged")
    reads = [r for r in records if r.kind in ("point", "range")]
    writes = [r for r in records if r.kind == "insert"]
    summary = latency_summary(scaled_latencies(reads, clock),
                              INGEST_TAIL_PCT, "read")
    write_summary = latency_summary(scaled_latencies(writes, clock), 99.0,
                                    "write")
    end_to_end = {
        "setup_s": setup_s,
        **throughput(records, clock, ("point", "range")),
        "read_p50_ms": summary["read_p50_ms"],
        "read_tail_ms": summary["read_tail_ms"],
        "server_rss_mb": report["rss_mb"],
        "space_amp": report["space_amp"],
    }
    notes = {**summary, **write_summary, **clock_notes(clock),
             "ingest_rows_per_s":
                 sum(r.rows for r in writes) / clock.seconds}
    return Outcome(end_to_end, layers,
                   attempted=sum(c.attempted for c in conns),
                   failed=sum(c.failed for c in conns), wrong=wrong,
                   notes=notes)
