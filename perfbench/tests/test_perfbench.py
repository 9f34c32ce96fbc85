"""Self-tests of the benchmark: tiny runs of every workload, the
correctness checks, span arithmetic and error accounting.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import ROOT
from perfbench import data, shard_scatter, table1_scan, wire
from perfbench.report import load_spec, result_line
from perfbench.spans import Span, Tracer, self_times

SPEC = load_spec(ROOT)
TINY_ROWS = 2000
TINY_WIRE = wire.Sizes(rows=TINY_ROWS, cubes=4)

POOL = {"bufferpool.logical_reads_per_stmt",
        "bufferpool.physical_reads_per_stmt", "bufferpool.hit_ratio",
        "bufferpool.seq_read_share"}
SERVER = {"server.queue_us", "server.wire_us", "protocol.reply_bytes"}
#: The layers each workload's traced run measures; the rest read 0.
LAYERS = {
    "table1_scan": POOL | {
        "sqlfront.plan_us", "engine.session_us",
        "table.page_walk_ns_per_row", "table.decode_ns_per_row",
        "executor.udf_call_ns_per_row", "tsql.item_ns_per_row",
        "trace.overhead_pct"},
    "wire_lookup": POOL | SERVER | {
        "sqlfront.plan_us", "engine.session_us", "btree.pages_per_lookup",
        "blob.pages_per_window", "blob.bytes_per_window",
        "trace.overhead_pct"},
    "wire_ingest": POOL | SERVER | {
        "sqlfront.plan_us", "sqlfront.parse_insert_us",
        "engine.session_us", "btree.pages_per_lookup",
        "table.prepare_insert_us", "table.apply_insert_us",
        "pagefile.history_pages", "trace.overhead_pct"},
    "shard_scatter": SERVER | {
        "sqlfront.plan_us", "shard.router_us", "shard.shard_elapsed_ms",
        "shard.coord_overhead_us", "shard.fanout", "trace.overhead_pct"},
}
#: Counts that must repeat exactly across runs with one seed.
COUNTS = {
    "table1_scan": POOL,
    "wire_lookup": {"btree.pages_per_lookup", "blob.pages_per_window",
                    "blob.bytes_per_window",
                    "bufferpool.logical_reads_per_stmt"},
    "shard_scatter": {"shard.fanout"},
}


def tiny_run(workload: str, seed: int, trace: bool):
    if workload == "table1_scan":
        return table1_scan.run(ROOT, seed, 1.0, trace, rows=TINY_ROWS)
    if workload == "wire_lookup":
        return wire.run_lookup(ROOT, seed, 1.0, trace, sizes=TINY_WIRE)
    if workload == "wire_ingest":
        return wire.run_ingest(ROOT, seed, 1.0, trace, sizes=TINY_WIRE)
    return shard_scatter.run(ROOT, seed, 1.0, trace, rows=TINY_ROWS)


@pytest.fixture(scope="module")
def traced():
    return {}


def names(kind: str) -> set:
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", list(LAYERS))
def test_smoke_run_emits_exactly_the_benchmark_metrics(workload, traced):
    plain = tiny_run(workload, 3, False)
    line = result_line(SPEC, plain, False)
    assert line["correct"], plain.wrong
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())

    outcome = traced[workload] = tiny_run(workload, 3, True)
    line = result_line(SPEC, outcome, True)
    assert line["correct"], outcome.wrong
    assert set(line["metrics"]) == names("per_layer")
    assert set(outcome.per_layer) == LAYERS[workload]


@pytest.mark.parametrize("workload", list(COUNTS))
def test_count_metrics_repeat_exactly(workload, traced):
    first = traced.get(workload) or tiny_run(workload, 3, True)
    second = tiny_run(workload, 3, True)
    for name in COUNTS[workload]:
        assert first.per_layer[name] == second.per_layer[name], name


def test_written_trace_nests_and_self_times_add_up(traced):
    outcome = traced.get("wire_lookup") or tiny_run("wire_lookup", 3, True)
    assert outcome.per_layer
    path = os.path.join(ROOT, ".perfbench", "trace-wire_lookup-3.jsonl")
    with open(path) as lines:
        spans = [Span(**json.loads(line)) for line in lines]
    check_spans(spans)


def check_spans(spans):
    by_id = {s.span_id: s for s in spans}
    own = self_times(spans)
    totals: dict[int, float] = {}
    for span in spans:
        assert own[span.span_id] >= -1e-9, span
        root = span
        while root.parent is not None:
            parent = by_id[root.parent]
            assert parent.start <= root.start + 1e-9
            assert root.end <= parent.end + 1e-9
            assert parent.stmt == root.stmt
            root = parent
        totals[root.span_id] = totals.get(root.span_id, 0.0) + own[span.span_id]
    for root_id, total in totals.items():
        assert total == pytest.approx(by_id[root_id].duration, abs=1e-9)


def test_spans_nest_and_self_times_sum_to_the_root():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.002))

    def middle():
        leaf()
        time.sleep(0.001)
        leaf()

    middle = tracer.wrap("middle", middle)
    root = tracer.open("root", tracer.new_stmt())
    middle()
    leaf()
    tracer.close(root)
    assert [s.name for s in tracer.spans] == [
        "root", "middle", "leaf", "leaf", "leaf"]
    check_spans(tracer.spans)
    own = self_times(tracer.spans)
    assert own[1] == pytest.approx(0.001, abs=5e-4)


def test_host_clock_scales_each_segment_by_the_kernel_around_it(
        monkeypatch):
    from perfbench import measure

    ref = measure.REFERENCE_KERNEL_S
    kernel = iter([2 * ref, 2 * ref, ref / 2])
    monkeypatch.setattr(measure, "host_kernel", lambda: next(kernel))
    affinity = os.sched_getaffinity(0)
    cpu = min(affinity)
    clock = measure.HostClock([cpu])
    clock.segment(lambda: time.sleep(0.01))
    clock.segment(lambda: time.sleep(0.01))
    # Kernel twice as slow as the reference around the first segment;
    # 2 ref and ref / 2 around the second: mean 1.25 ref.
    assert clock.factors == pytest.approx([0.5, 0.8])
    assert clock.scale(clock.starts[1] + 1e-6, 1.0) == pytest.approx(0.8)
    assert 0.5 * clock.wall < clock.seconds < 0.8 * clock.wall

    # Two CPUs, weighted by the CPU time each used in the segment.
    kernel = iter([ref, 2 * ref, ref, 2 * ref])
    monkeypatch.setattr(measure, "host_kernel", lambda: next(kernel))
    used = iter([[0.0, 0.0], [1.0, 3.0]])
    clock = measure.HostClock([cpu, cpu], busy=lambda: next(used))
    took, result = clock.timed(lambda: "done")
    assert result == "done"
    assert clock.factors == pytest.approx([(1 * 1.0 + 3 * 0.5) / 4])
    assert took == pytest.approx(clock.wall * clock.factors[0])
    assert os.sched_getaffinity(0) == affinity  # restored


def test_wrong_answers_fail_the_checks():
    from table1_harness import SQL_TEXT, load_tables

    from repro.engine import SqlSession

    db, _ts, _tv = load_tables(TINY_ROWS)
    (value,), metrics = SqlSession(db).query(SQL_TEXT["Query 3"])
    refs = table1_scan.references(TINY_ROWS)
    assert table1_scan.check("Query 3", value, metrics, refs,
                             TINY_ROWS) == []
    corrupted = dict(refs, **{"Query 3": refs["Query 3"] + 1e-12})
    assert table1_scan.check("Query 3", value, metrics, corrupted,
                             TINY_ROWS)

    # A range read that saw part of an INSERT statement, or the wrong sum.
    ingest = wire._Ingest(100, np.random.default_rng(0))
    ingest.inserted = [data.insert_values(ingest.rng)]
    ingest.acked = 100 + data.INSERT_ROWS
    column = np.concatenate([np.zeros(100), ingest.inserted[0][:, 0]])
    whole = data.sequential_sum(column[100:110])
    wrong: list = []
    wire._check_ranges([(100, whole, 10, 110, 110)], ingest, column, wrong)
    assert wrong == []
    wire._check_ranges([(100, whole, 7, 110, 110)], ingest, column, wrong)
    wire._check_ranges([(100, whole + 1, 10, 110, 110)], ingest, column,
                       wrong)
    assert len(wrong) == 2


def test_server_busy_counts_as_an_error_not_a_crash():
    outcome = wire.run_lookup(ROOT, 5, 1.5, False, sizes=TINY_WIRE,
                              server={"max_workers": 1, "queue_limit": 0})
    assert outcome.wrong == []
    assert 0 < outcome.failed < outcome.attempted


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
