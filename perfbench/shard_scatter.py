"""``shard_scatter``: a range-partitioned cluster of 2 shards with 1
replica each, behind a coordinator, driven over 1 connection.

The table is ``bench_sharded``'s ``tb(id, k, v VARBINARY(100))``.  Each
round is one ``SUM(FloatArray.Item_1(v, 0)), COUNT(*)`` scatter, one
``GROUP BY k`` and 20 routed point lookups with keys drawn from the
seed.  It is the only workload that exercises router fan-out,
partial-state merge and the coordinator hop.  Every answer must be
bit-identical to a single-node ``SqlSession`` over the same rows.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import data
from perfbench.host import start_hosts
from perfbench.loop import (FAILED, Conn, ReplyBytes, attach_host,
                            clock_notes, latency_summary, median_call_us,
                            run_phases, scaled_latencies, throughput,
                            wire_layers)
from perfbench.measure import HostClock, mean, median
from perfbench.report import Outcome, write_trace
from perfbench.spans import Tracer

SETUPS = 3
ROUND_POINTS = 20
POINT_SQL = "SELECT SUM(FloatArray.Item_1(v, 0)) FROM tb WHERE id = {}"
#: 20 of a round's 22 statements are point lookups; the tail percentile
#: lies inside the slowest class (the GROUP BY), not on a class edge.
TAIL_PCT = 97.5


def bits(rows) -> tuple:
    """Rows with every float as its exact bit pattern."""
    return tuple(tuple(v.hex() if isinstance(v, float) else v for v in row)
                 for row in rows)


def _rows(result) -> list:
    values, _metrics = result
    return values if isinstance(values, list) else [tuple(values)]


def run(root: str, seed: int, seconds: float, trace: bool,
        rows: int = data.ROWS) -> Outcome:
    from bench_sharded import GROUP_SQL, SCAN_SQL, build_reference

    from repro.server import ArrayClient

    reference = build_reference(rows)
    want = {sql: bits(_rows(reference.query(sql, cold=False)))
            for sql in (SCAN_SQL, GROUP_SQL)}
    wrong: list[str] = []
    points: list[tuple[int, object]] = []
    host, setup_s = start_hosts(root, "shard", seed, SETUPS, HostClock(),
                                rows=rows)
    with host:
        conn = Conn(lambda: ArrayClient("127.0.0.1", host.port,
                                        timeout=60.0))
        rng = np.random.default_rng([seed, 7])

        def query(kind, sql):
            def call():
                result = conn.client.query(sql, cold=False)
                return result, result.metrics["rows"], \
                    result.elapsed_seconds
            return conn.run(kind, call)

        def one_round():
            for kind, sql in (("scatter", SCAN_SQL), ("group", GROUP_SQL)):
                result = query(kind, sql)
                if result is not FAILED and bits(result.rows) != want[sql]:
                    wrong.append(f"{kind} differs from single-node")
            for key in rng.integers(rows, size=ROUND_POINTS):
                result = query("point", POINT_SQL.format(int(key)))
                if result is not FAILED:
                    points.append((int(key), result.rows))

        def loop(deadline):
            while time.perf_counter() < deadline:
                one_round()

        tracer, reply_bytes = Tracer(), ReplyBytes()
        layers: dict[str, float] = {}
        try:
            clock, overhead = run_phases(host, [conn], [loop], seconds,
                                         trace, tracer, reply_bytes)
            if trace:
                conn.probe = True
                one_round()
                reply_bytes.uninstall()
                host.call("trace", on=False)
            records = list(conn.records)
            report = host.call("report")
        finally:
            reply_bytes.uninstall()
            conn.close()
    for key, got in points:
        if bits(got) != bits(_rows(reference.query(POINT_SQL.format(key),
                                                   cold=False))):
            wrong.append(f"point {key} differs from single-node")
    if trace:
        layers = _layers(tracer, records, report, reference)
        layers["trace.overhead_pct"] = overhead
        write_trace(root, "shard_scatter", seed, tracer)
    summary = latency_summary(scaled_latencies(records, clock), TAIL_PCT,
                              "read")
    end_to_end = {
        "setup_s": setup_s,
        **throughput(records, clock, ("scatter", "group", "point")),
        "read_p50_ms": summary["read_p50_ms"],
        "read_tail_ms": summary["read_tail_ms"],
        "server_rss_mb": report["rss_mb"],
        "space_amp": report["space_amp"],
    }
    return Outcome(end_to_end, layers, attempted=conn.attempted,
                   failed=conn.failed, wrong=wrong,
                   notes={**summary, **clock_notes(clock)})


def _layers(tracer: Tracer, records, report, reference) -> dict:
    """Coordinator figures.  The coordinator numbers its statements as
    one session, in the order the single connection sent them."""
    from bench_sharded import GROUP_SQL, SCAN_SQL

    paired = attach_host(tracer, {1: [r for r in records if r.span]},
                         report)
    shard_spans: dict[int, list] = {}
    for span in tracer.spans:
        if span.name == "shard.server":
            shard_spans.setdefault(span.parent, []).append(span)

    def slowest_shard(root) -> float:
        return max((s.duration for s in shard_spans.get(root.span_id, [])),
                   default=0.0)

    texts = [SCAN_SQL, GROUP_SQL] + [POINT_SQL.format(k * 997 % 1000)
                                     for k in range(100)]
    return {
        **wire_layers(records, paired),
        "shard.router_us": median(root.duration
                                  for _r, root, _reads in paired) * 1e6,
        "shard.shard_elapsed_ms": median(
            s.duration for spans in shard_spans.values()
            for s in spans) * 1e3,
        "shard.coord_overhead_us": median(
            r.latency - slowest_shard(root) for r, root, _ in paired) * 1e6,
        "shard.fanout": mean(len(shard_spans.get(root.span_id, []))
                             for r, root, _reads in paired if r.probe),
        "sqlfront.plan_us": median_call_us(
            "sqlfront.plan_select", reference.plan_select, texts),
    }
