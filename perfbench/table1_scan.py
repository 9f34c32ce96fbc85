"""``table1_scan``: the paper's Table 1 experiment, in process.

The five Section 6.3 queries run verbatim through ``SqlSession.query``
with the default ``cold=True`` over Tscalar and Tvector (loaded by
``table1_harness.load_tables``), one caller in a closed loop.  Each round
runs the five queries once, in an order drawn from the seed.  Nearly all
the work is page walk, record decode, UDF call and the ``Item_1`` kernel;
cold runs charge every page as a physical read, so this is the
larger-than-cache workload.  No wire is involved.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from perfbench import data
from perfbench.host import wrap_executor
from perfbench.loop import (Record, clock_notes, latency_summary,
                            median_call_us, pool_layers, scaled_latencies)
from perfbench.measure import (HostClock, median, peak_rss_mib, pinned,
                               space_amp)
from perfbench.report import Outcome, write_trace
from perfbench.spans import Tracer

SETUPS = 3
#: The slowest fifth of the statements is Query 4; p85 lies inside it.
TAIL_PCT = 85.0
#: Table 1 tolerances of ``bench_table1.test_table1_projected_shape``.
EXEC_REL, CPU_ABS, IO_REL = 0.25, 15.0, 0.25


def _setup(rows: int):
    """Load both tables and run one query."""
    from table1_harness import SQL_TEXT, load_tables

    from repro.engine import SqlSession

    db, _tscalar, _tvector = load_tables(rows)
    session = SqlSession(db)
    session.query(SQL_TEXT["Query 1"])
    return db, session


def references(rows: int) -> dict[str, float]:
    """Each query's answer, from the values ``load_tables`` stores."""
    column = data.table1_values(rows)[:, 0]
    total = data.sequential_sum(column)
    return {"Query 1": rows, "Query 2": rows, "Query 3": total,
            "Query 4": total, "Query 5": 0.0}


def check(label: str, value, metrics, refs: dict, rows: int) -> list[str]:
    """The answer must equal the reference, and the paper-scale
    projection must keep Table 1's shape."""
    from table1_harness import PAPER, PAPER_ROWS

    problems = []
    if value != refs[label]:
        problems.append(f"{label}: {value!r} != {refs[label]!r}")
    big = metrics.scaled(PAPER_ROWS / rows,
                         fixed_random_reads=metrics.random_reads)
    exec_s, cpu, io = PAPER[label]
    if abs(big.sim_exec_seconds - exec_s) > EXEC_REL * exec_s \
            or abs(big.cpu_percent - cpu) > CPU_ABS \
            or abs(big.io_mb_per_s - io) > IO_REL * io:
        problems.append(
            f"{label} projection {big.sim_exec_seconds:.0f} s, "
            f"{big.cpu_percent:.0f} %, {big.io_mb_per_s:.0f} MB/s is off "
            f"Table 1's {exec_s} s, {cpu} %, {io} MB/s")
    return problems


def _round(session, order, refs, rows, wrong, records, tracer=None,
           pool=None, reads=None):
    from table1_harness import SQL_TEXT

    for label in order:
        span = tracer.open("client.statement", tracer.new_stmt()) \
            if tracer else None
        before = pool.snapshot_thread_counters() if pool else None
        start = time.perf_counter()
        (value,), metrics = session.query(SQL_TEXT[label])
        end = time.perf_counter()
        if span is not None:
            tracer.close(span)
        if pool is not None:
            delta = pool.snapshot_thread_counters().delta_since(before)
            reads.append((delta.logical_reads, delta.physical_reads,
                          delta.sequential_reads))
        records.append(Record(label, start, end, metrics.rows, span=span))
        wrong.extend(check(label, value, metrics, refs, rows))


def _loop(session, rng, seconds, refs, rows, wrong, tracer=None):
    """Whole rounds, each a segment of the returned clock, until
    ``seconds`` have passed; returns the records and the clock."""
    labels = ["Query 1", "Query 2", "Query 3", "Query 4", "Query 5"]
    records: list[Record] = []
    clock = HostClock()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        order = [labels[i] for i in rng.permutation(len(labels))]
        clock.segment(lambda: _round(session, order, refs, rows, wrong,
                                     records, tracer))
    return records, clock


def run(root: str, seed: int, seconds: float, trace: bool,
        rows: int = data.ROWS) -> Outcome:
    with pinned():  # the clocks calibrate the one CPU the caller runs on
        return _run(root, seed, seconds, trace, rows)


def _run(root, seed, seconds, trace, rows) -> Outcome:
    times = []
    db = session = None
    setup_clock = HostClock()
    for _ in range(SETUPS):
        db = session = None
        gc.collect()
        took, (db, session) = setup_clock.timed(lambda: _setup(rows))
        times.append(took)
    refs = references(rows)
    rng = np.random.default_rng([seed, 0])
    wrong: list[str] = []
    layers: dict[str, float] = {}
    if not trace:
        records, clock = _loop(session, rng, seconds, refs, rows, wrong)
    else:
        untraced, clock_a = _loop(session, rng, seconds / 2, refs, rows,
                                  wrong)
        tracer = Tracer()
        session.query = tracer.wrap("sqlfront.query", session.query)
        wrap_executor(tracer, session.executor)
        records, clock = _loop(session, rng, seconds / 2, refs, rows, wrong,
                               tracer)
        layers = _layers(session, db, untraced, records, clock_a, clock,
                         refs, rows, wrong, tracer)
        write_trace(root, "table1_scan", seed, tracer)
    summary = latency_summary(scaled_latencies(records, clock), TAIL_PCT,
                              "read")
    end_to_end = {
        "setup_s": median(times),
        "stmt_per_s": len(records) / clock.seconds,
        "scan_rows_per_s": sum(r.rows for r in records) / clock.seconds,
        "read_p50_ms": summary["read_p50_ms"],
        "read_tail_ms": summary["read_tail_ms"],
        "server_rss_mb": peak_rss_mib(),
        "space_amp": space_amp(db, {"Tvector": 5}),
    }
    return Outcome(end_to_end, layers, attempted=len(records), failed=0,
                   wrong=wrong, notes={**summary, **clock_notes(clock),
                                       "setup_runs_s": times})


def _layers(session, db, untraced, traced, clock_a, clock_b, refs, rows,
            wrong, tracer) -> dict:
    """Per-layer figures: the Section 7.1 decomposition from the
    untraced half, span times from the traced half, exact buffer-pool
    counts from one more round in fixed order."""
    from table1_harness import SQL_TEXT

    q = {label: median(clock_a.scale(r.start, r.latency)
                       for r in untraced if r.kind == label)
         for label in SQL_TEXT}
    per_row = 1e9 / rows
    reads: list = []
    _round(session, list(SQL_TEXT), refs, rows, wrong, [], pool=db.pool,
           reads=reads)
    rate_a = len(untraced) / clock_a.seconds
    rate_b = len(traced) / clock_b.seconds
    return {
        "table.page_walk_ns_per_row": q["Query 1"] * per_row,
        "table.decode_ns_per_row": (q["Query 3"] - q["Query 1"]) * per_row,
        "executor.udf_call_ns_per_row":
            (q["Query 5"] - q["Query 2"]) * per_row,
        "tsql.item_ns_per_row": (q["Query 4"] - q["Query 5"]) * per_row,
        "engine.session_us": median(tracer.durations("sqlfront.query")) * 1e6,
        "sqlfront.plan_us": median_call_us(
            "sqlfront.plan_select", session.plan_select,
            list(SQL_TEXT.values()) * 20),
        **pool_layers(reads),
        "trace.overhead_pct": 100.0 * (rate_a - rate_b) / rate_a,
    }
