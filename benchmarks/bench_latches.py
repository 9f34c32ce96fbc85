"""Benchmark: reader throughput while a writer runs.

Two workloads, each against a writer-idle baseline taken in the same
run (reader threads issuing warm aggregate SELECTs against table A and
nothing else):

- **inter-table** — one writer churns INSERTs into table B.  Per-table
  latches let the readers of A proceed; only the writer's share of
  the interpreter slows them.
- **intra-table** — one writer churns INSERT/DELETE on A itself.
  Readers pin a copy-on-write page-version snapshot and scan it
  latch-free, so they never queue behind the writer's table latch.

Each workload is reported as a *fraction*: reader queries completed
under the writer divided by reader queries completed with the writer
idle.  The fraction is host-relative — a faster or slower host moves
both terms — so one recorded floor gates every host, including the
4-core CI runners.  ``BENCH_latches.json`` at the repo root records
ten runs of both fractions (and, from before the legacy coarse-lock
and latch-per-scan modes were deleted, their comparator numbers), and
the gate is the floor stored there: half the lowest of those ten
fractions.

Run directly for JSON output::

    PYTHONPATH=src python benchmarks/bench_latches.py [--smoke]
"""

import json
import math
import os
import pathlib
import sys
import threading
import time

import numpy as np

from repro.engine import Column, Database
from repro.engine.sqlfront import SqlSession
from repro.tsql import FloatArray

#: Rows loaded into the read-side table.
ROWS = int(os.environ.get("REPRO_BENCH_LATCH_ROWS", "4000"))

#: Measurement window per workload, seconds.
WINDOW = float(os.environ.get("REPRO_BENCH_LATCH_SECONDS", "1.0"))

READERS = 3

READ_SQL = "SELECT SUM(FloatArray.Item_1(v, 0)), COUNT(*) FROM ta"

#: The checked-in trajectory holding the recorded fractions and floors.
RECORD_PATH = pathlib.Path(__file__).resolve().parent.parent \
    / "BENCH_latches.json"


def build_db(rows: int = ROWS) -> Database:
    db = Database()
    values = np.random.default_rng(2).standard_normal((rows, 5))
    ta = db.create_table(
        "ta", [Column("id", "bigint"),
               Column("v", "varbinary", cap=100)])
    ta.insert_many((i, FloatArray.Vector_5(*values[i]))
                   for i in range(rows))
    db.create_table(
        "tb", [Column("id", "bigint"),
               Column("v", "varbinary", cap=100)])
    return db


def _traffic(db: Database, window: float, readers: int,
             write=None, writes_ta: bool = False) -> dict:
    """Reader threads scan ``ta`` for ``window`` seconds while
    ``write(session, i)`` (if given) runs in a loop on one writer
    thread and returns how many statements it completed.

    Readers check every result.  With ``writes_ta`` the row count may
    be the base count or one more (the writer's in-flight key) and the
    sum must match the base sum (churned keys carry a zero payload) —
    a snapshot may be stale, never torn; otherwise every result must
    equal the base bit for bit.  Returns ``{"reader_ops": ...,
    "writer_ops": ...}``.
    """
    base_sum, base_count = SqlSession(db).query(
        READ_SQL, cold=False, engine="vector")[0]
    stop = threading.Event()
    counts = [0] * (readers + 1)
    errors = []

    def reader(slot):
        session = SqlSession(db)
        try:
            while not stop.is_set():
                (s, n), _ = session.query(READ_SQL, cold=False,
                                          engine="vector")
                if writes_ta:
                    assert n in (base_count, base_count + 1), \
                        (n, base_count)
                    assert math.isclose(s, base_sum, rel_tol=1e-9,
                                        abs_tol=1e-9), (s, base_sum)
                else:
                    assert (s, n) == (base_sum, base_count), (s, n)
                counts[slot] += 1
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def writer():
        session = SqlSession(db)
        i = 0
        try:
            while not stop.is_set():
                counts[readers] += write(session, i)
                i += 1
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(slot,))
               for slot in range(readers)]
    if write is not None:
        threads.append(threading.Thread(target=writer))
    for t in threads:
        t.start()
    time.sleep(window)
    stop.set()
    for t in threads:
        t.join(timeout=60)
    if errors:
        raise errors[0]
    return {"reader_ops": sum(counts[:readers]),
            "writer_ops": counts[readers]}


def idle_traffic(window: float = WINDOW, readers: int = READERS,
                 rows: int = ROWS) -> dict:
    """Readers of A with no writer: the baseline of both fractions."""
    return _traffic(build_db(rows), window, readers)


def mixed_traffic(window: float = WINDOW, readers: int = READERS,
                  rows: int = ROWS) -> dict:
    """Readers of A while one writer churns INSERTs into B."""
    def write(session, i):
        session.execute(f"INSERT INTO tb VALUES ({i}, "
                        "FloatArray.Vector_3(1.0, 2.0, 3.0))")
        return 1
    return _traffic(build_db(rows), window, readers, write)


def intra_table_traffic(window: float = WINDOW, readers: int = READERS,
                        rows: int = ROWS) -> dict:
    """Readers of A while one writer alternates INSERT and DELETE of
    a fresh zero-payload key in A itself."""
    def write(session, i):
        key = rows + i
        session.execute(f"INSERT INTO ta VALUES ({key}, "
                        "FloatArray.Vector_3(0.0, 0.0, 0.0))")
        session.execute(f"DELETE FROM ta WHERE id = {key}")
        return 2
    return _traffic(build_db(rows), window, readers, write,
                    writes_ta=True)


def reader_fractions(window: float = WINDOW, rows: int = ROWS) -> dict:
    """One run of all three workloads, with both fractions of the
    writer-idle reader throughput (collect-friendly)."""
    idle = idle_traffic(window, rows=rows)
    inter = mixed_traffic(window, rows=rows)
    intra = intra_table_traffic(window, rows=rows)
    base = max(idle["reader_ops"], 1)
    return {
        "idle_reader_ops": idle["reader_ops"],
        "inter_table": inter,
        "intra_table": intra,
        "inter_table_fraction": inter["reader_ops"] / base,
        "intra_table_fraction": intra["reader_ops"] / base,
    }


def recorded_floors() -> dict:
    """The gate's fraction floors from ``BENCH_latches.json``."""
    return json.loads(RECORD_PATH.read_text())["gate"]


def test_reader_on_a_completes_while_writer_holds_b():
    """Smoke (any host): with a write latch pinned on B, a SELECT on A
    still completes — the direct overlap the inter-table numbers come
    from."""
    db = build_db(rows=200)
    done = threading.Event()

    def read():
        SqlSession(db).query(READ_SQL, cold=False, engine="vector")
        done.set()

    with db.latches.write_latch("tb"):
        t = threading.Thread(target=read, daemon=True)
        t.start()
        assert done.wait(timeout=10), \
            "reader on A stalled behind the writer's latch on B"
    t.join(timeout=10)


def test_every_workload_makes_progress():
    """Smoke (any host): a short window produces reader and writer
    traffic in every workload, and every read passes the
    stale-never-torn checks."""
    assert idle_traffic(window=0.2, readers=2, rows=500)["reader_ops"] > 0
    for workload in (mixed_traffic, intra_table_traffic):
        ops = workload(window=0.2, readers=2, rows=500)
        assert ops["reader_ops"] > 0
        assert ops["writer_ops"] > 0


def test_reader_fractions_hold_the_recorded_floor():
    """The regression gate: under a writer on B, and under a writer on
    A itself, readers keep at least the recorded floor fraction of
    their writer-idle throughput."""
    floors = recorded_floors()
    results = reader_fractions()
    for name in ("inter_table_fraction", "intra_table_fraction"):
        assert results[name] >= floors[name], (name, results, floors)


def main(smoke: bool = False) -> None:
    window = min(WINDOW, 0.25) if smoke else WINDOW
    rows = min(ROWS, 1000) if smoke else ROWS
    results = reader_fractions(window, rows=rows)
    floors = recorded_floors()
    print(json.dumps({
        "bench": "latches",
        "rows": rows,
        "window_seconds": window,
        "readers": READERS,
        "cpus": os.cpu_count(),
        **results,
        "floors": floors,
        "within_floors": all(results[name] >= floor
                             for name, floor in floors.items()
                             if name.endswith("_fraction")),
    }, indent=2))


if __name__ == "__main__":
    main(smoke="--smoke" in sys.argv[1:])
