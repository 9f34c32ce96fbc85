"""The parallel engine's machinery: pools, snapshots, fallbacks,
and the batch kernels added for Subarray/Concat.

Value/metrics *parity* against the serial engines lives in
``test_parity.py``; this file covers the moving parts around it —
worker-crash recovery, pool lifecycle, read-only snapshots, honest
fallback reporting, and the env-var defaults.
"""

import os
import pickle
import random
import struct

import numpy as np
import pytest

from repro.core.errors import BoundsError
from repro.engine import Column, Database
from repro.engine import executor as executor_mod
from repro.engine import parallel
from repro.engine.sqlfront import SqlSession
from repro.tsql import FloatArray, IntArray

ROWS = 500


def _bits(value):
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


@pytest.fixture()
def session():
    db = Database(buffer_pages=2048)
    table = db.create_table(
        "t", [Column("id", "bigint"), Column("x", "float"),
              Column("k", "int"),
              Column("b", "varbinary", cap=400)])
    rng = random.Random(11)
    rows = []
    for i in range(ROWS):
        x = None if rng.random() < 0.1 else rng.uniform(-4.0, 4.0)
        k = rng.randrange(0, 4)
        b = FloatArray.Vector_5(*[rng.uniform(-1, 1) for _ in range(5)])
        rows.append((i, x, k, b))
    table.insert_many(rows)
    yield SqlSession(db)
    pool = getattr(db, "_worker_pool", None)
    if pool is not None:
        pool.shutdown()


class TestEngineSelection:
    def test_scan_reports_parallel(self, session):
        vals, m = session.query("SELECT SUM(x), COUNT(*) FROM t",
                                engine="parallel", workers=2)
        assert m.engine == "parallel"
        assert m.workers == 2
        ref, _ = session.query("SELECT SUM(x), COUNT(*) FROM t",
                               engine="vector")
        assert _bits(vals) == _bits(ref)

    def test_grouped_scan_reports_parallel(self, session):
        vals, m = session.query(
            "SELECT k, SUM(x), COUNT(*) FROM t GROUP BY k",
            engine="parallel", workers=2)
        assert m.engine == "parallel"
        ref, _ = session.query(
            "SELECT k, SUM(x), COUNT(*) FROM t GROUP BY k",
            engine="vector")
        assert _bits(vals) == _bits(ref)

    def test_seek_plan_falls_back_to_row(self, session):
        vals, m = session.query("SELECT SUM(x) FROM t WHERE id = 7",
                                engine="parallel", workers=2)
        assert m.engine == "row"  # a point lookup has nothing to fan out
        ref, _ = session.query("SELECT SUM(x) FROM t WHERE id = 7")
        assert _bits(vals) == _bits(ref)

    def test_parallel_unsafe_udf_falls_back_to_vector(self, session):
        calls = []

        def tally(v):
            calls.append(v)
            return (v or 0.0) * 2.0

        session.register_function("dbo.Tally", tally,
                                  parallel_safe=False)
        vals, m = session.query(
            "SELECT SUM(dbo.Tally(x)) FROM t WHERE x IS NOT NULL",
            engine="parallel", workers=2)
        assert m.engine == "vector"  # honest fallback, not a lie
        assert calls  # ran in this process, not in a worker
        ref, _ = session.query(
            "SELECT SUM(dbo.Tally(x)) FROM t WHERE x IS NOT NULL",
            engine="vector")
        assert _bits(vals) == _bits(ref)
        # The flag lives in the session registry, not stamped onto the
        # caller's function object (which may be shared across sessions).
        assert not hasattr(tally, "_parallel_safe")

    def test_parallel_safe_flag_is_per_session(self, session):
        def doubler(v):
            return (v or 0.0) * 2.0

        session.register_function("dbo.Doubler", doubler,
                                  parallel_safe=False)
        assert not hasattr(doubler, "_parallel_safe")
        from repro.engine.sqlfront import SqlSession
        other = SqlSession(session.db)
        other.register_function("dbo.Doubler", doubler)
        _, _, safe = other._resolve_function("dbo", "Doubler")
        assert safe is True  # the first session's False did not leak
        _, _, unsafe = session._resolve_function("dbo", "Doubler")
        assert unsafe is False

    def test_unpicklable_udf_falls_back_to_vector(self, session):
        box = {"scale": 3.0}
        session.register_function(
            "dbo.Closure", lambda v: (v or 0.0) * box["scale"])
        vals, m = session.query("SELECT SUM(dbo.Closure(x)) FROM t",
                                engine="parallel", workers=2)
        assert m.engine == "vector"
        ref, _ = session.query("SELECT SUM(dbo.Closure(x)) FROM t",
                               engine="vector")
        assert _bits(vals) == _bits(ref)

    def test_workers_must_be_positive(self, session):
        with pytest.raises(ValueError):
            session.query("SELECT COUNT(*) FROM t", engine="parallel",
                          workers=0)


class TestEnvDefaults:
    def test_env_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "parallel")
        assert executor_mod._env_default_engine() == "parallel"
        monkeypatch.setenv("REPRO_ENGINE", "ROW")
        assert executor_mod._env_default_engine() == "row"
        monkeypatch.setenv("REPRO_ENGINE", "columnar")
        assert executor_mod._env_default_engine() == "vector"
        monkeypatch.delenv("REPRO_ENGINE")
        assert executor_mod._env_default_engine() == "vector"

    def test_env_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert executor_mod._env_default_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert executor_mod._env_default_workers() is None
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        assert executor_mod._env_default_workers() is None


class TestWorkerPool:
    def test_killed_workers_raise_not_hang(self, session):
        sql = "SELECT SUM(x), COUNT(*) FROM t"
        ref, _ = session.query(sql, engine="parallel", workers=2)
        pool = session.db._worker_pool
        for proc in pool._procs:
            proc.kill()
        for proc in pool._procs:
            proc.join(5.0)
        with pytest.raises(parallel.WorkerDied):
            session.query(sql, engine="parallel", workers=2)
        # The broken pool is retired; the next query respawns and works.
        vals, m = session.query(sql, engine="parallel", workers=2)
        assert m.engine == "parallel"
        assert _bits(vals) == _bits(ref)
        assert session.db._worker_pool is not pool

    def test_shutdown_removes_snapshots_and_workers(self, session):
        session.query("SELECT COUNT(*) FROM t", engine="parallel",
                      workers=2)
        pool = session.db._worker_pool
        ref = pool._snap_ref
        assert ref is not None and ref[0] == "shm"
        assert pool._segments._segments  # live segment owned by pool
        pool.shutdown()
        assert pool.broken
        assert not pool._procs
        assert not pool._segments._segments
        assert pool._snap_ref is None
        with pytest.raises(FileNotFoundError):
            from multiprocessing import shared_memory
            shared_memory.SharedMemory(name=ref[1])

    def test_file_fallback_when_shm_disabled(self, session,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "off")
        (count,), _ = session.query("SELECT COUNT(*) FROM t",
                                    engine="parallel", workers=2)
        assert count == ROWS
        pool = session.db._worker_pool
        assert pool._snap_ref[0] == "file"
        paths = list(pool._snapshot_paths)
        assert paths and all(os.path.exists(p) for p in paths)
        pool.shutdown()
        assert not any(os.path.exists(p) for p in paths)

    def test_file_fallback_when_over_budget(self, session,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_SHM_BUDGET", "1024")
        (count,), _ = session.query("SELECT COUNT(*) FROM t",
                                    engine="parallel", workers=2)
        assert count == ROWS
        assert session.db._worker_pool._snap_ref[0] == "file"

    def test_snapshot_refreshes_after_writes(self, session):
        sql = "SELECT COUNT(*) FROM t"
        (count1,), _ = session.query(sql, engine="parallel", workers=2)
        session.execute("INSERT INTO t VALUES (9001, 1.0, 0, NULL)")
        (count2,), _ = session.query(sql, engine="parallel", workers=2)
        assert count2 == count1 + 1

    def test_refresh_is_lazy_per_table(self, session):
        """A write to table B must not force a snapshot re-cut (and a
        per-worker re-open) for queries against untouched table A."""
        session.execute(
            "CREATE TABLE other (id bigint, y float)")
        session.db.tables["other"].insert_many(
            [(i, float(i)) for i in range(50)])
        sql_t = "SELECT COUNT(*) FROM t"
        session.query(sql_t, engine="parallel", workers=2)
        pool = session.db._worker_pool
        assert pool.snapshot_cuts == 1
        # Write to the *other* table: t's snapshot stays valid.
        session.execute("INSERT INTO other VALUES (100, 1.0)")
        session.query(sql_t, engine="parallel", workers=2)
        assert pool.snapshot_cuts == 1
        # Now query the written table: re-cut exactly once, and the
        # fresh snapshot covers both tables again.
        (n,), _ = session.query("SELECT COUNT(*) FROM other",
                                engine="parallel", workers=2)
        assert n == 51
        assert pool.snapshot_cuts == 2
        session.query(sql_t, engine="parallel", workers=2)
        assert pool.snapshot_cuts == 2

    def test_refresh_recuts_for_written_table(self, session):
        sql = "SELECT COUNT(*) FROM t"
        session.query(sql, engine="parallel", workers=2)
        pool = session.db._worker_pool
        session.execute("INSERT INTO t VALUES (9002, 1.0, 0, NULL)")
        session.query(sql, engine="parallel", workers=2)
        assert pool.snapshot_cuts == 2

    def test_refresh_recuts_for_recreated_table(self, session):
        """DROP + CREATE of a same-named table with the same mutation
        count must still re-cut: the workers' snapshot holds the old
        table's pages."""
        session.execute("CREATE TABLE r (id bigint, y float)")
        session.execute("INSERT INTO r VALUES (1, 1.0), (2, 2.0)")
        sql = "SELECT SUM(y), COUNT(*) FROM r"
        assert session.query(sql, engine="parallel",
                             workers=2)[0] == (3.0, 2)
        session.execute("DROP TABLE r")
        session.execute("CREATE TABLE r (id bigint, y float)")
        session.execute("INSERT INTO r VALUES (5, 5.0), (6, 6.0)")
        assert session.query(sql, engine="parallel",
                             workers=2)[0] == (11.0, 2)

    def test_morsels_align_to_batch_boundaries(self, session):
        session.query("SELECT COUNT(*) FROM t", engine="parallel",
                      workers=2)
        pool = session.db._worker_pool
        for n_pages in (1, 63, 64, 65, 1000, 100_000):
            size = pool._morsel_pages(n_pages, 64)
            assert size % 64 == 0 and size >= 64

    def test_active_workers_gauge(self, session):
        before = parallel.active_workers()
        session.query("SELECT COUNT(*) FROM t", engine="parallel",
                      workers=2)
        assert parallel.active_workers() >= before + 2
        session.db._worker_pool.shutdown()
        assert parallel.active_workers() <= before


class TestSnapshots:
    def test_save_open_round_trip(self, session, tmp_path):
        path = str(tmp_path / "db.snap")
        session.db.save(path)
        clone = Database.open(path)
        ref, _ = session.query("SELECT SUM(x), COUNT(*) FROM t")
        vals, _ = SqlSession(clone).query(
            "SELECT SUM(x), COUNT(*) FROM t")
        assert _bits(vals) == _bits(ref)

    def test_read_only_snapshot_refuses_writes(self, session, tmp_path):
        path = str(tmp_path / "db.snap")
        session.db.save(path)
        clone = Database.open(path, read_only=True)
        with pytest.raises(PermissionError):
            clone.tables["t"].insert((9999, 1.0, 0, None))
        with pytest.raises(PermissionError):
            clone.create_table("u", [Column("id", "bigint")])

    def test_snapshot_pools_start_cold(self, session):
        # A pickled buffer pool must not inherit the coordinator's
        # cache, or worker "physical" reads would silently become hits.
        session.query("SELECT COUNT(*) FROM t", cold=False)
        pool2 = pickle.loads(pickle.dumps(session.db.pool))
        assert not pool2._cached
        assert pool2.counters.logical_reads == 0


class TestPlanPickling:
    def test_namespace_functions_pickle_by_name(self):
        blob = parallel.dumps_plan(
            {"fn": FloatArray.Item_1, "agg": FloatArray.Vector_3})
        plan = parallel.loads_plan(blob)
        assert plan["fn"] is FloatArray.Item_1
        assert plan["agg"] is FloatArray.Vector_3

    def test_bound_namespace_methods_pickle_by_name(self):
        blob = parallel.dumps_plan({"sub": FloatArray.Subarray,
                                    "cat": FloatArray.Concat})
        plan = parallel.loads_plan(blob)
        v = FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0)
        assert plan["sub"](v, IntArray.Vector_1(2),
                           IntArray.Vector_1(3), 0) == \
            FloatArray.Subarray(v, IntArray.Vector_1(2),
                                IntArray.Vector_1(3), 0)


def _obj_col(values):
    """Column as the vectorized executor hands it to a kernel: a numpy
    object array."""
    col = np.empty(len(values), dtype=object)
    col[:] = values
    return col


class TestSubarrayKernel:
    def test_batch_matches_per_row(self):
        rng = random.Random(3)
        blobs = [FloatArray.Vector_5(*[rng.uniform(-9, 9)
                                       for _ in range(5)])
                 for _ in range(50)]
        off, size = IntArray.Vector_1(2), IntArray.Vector_1(3)
        kernel = FloatArray.Subarray.vectorized
        out = kernel([_obj_col(blobs), _obj_col([off] * 50),
                      _obj_col([size] * 50)])
        assert out is not None
        for got, blob in zip(out, blobs):
            assert got == FloatArray.Subarray(blob, off, size)

    def test_batch_with_collapse(self):
        m = FloatArray.Matrix_2(1.0, 2.0, 3.0, 4.0)
        off, size = IntArray.Vector_2(0, 1), IntArray.Vector_2(2, 1)
        kernel = FloatArray.Subarray.vectorized
        out = kernel([_obj_col([m, m]), _obj_col([off, off]),
                      _obj_col([size, size]), _obj_col([1, 1])])
        assert out is not None
        assert out[0] == FloatArray.Subarray(m, off, size, 1)

    def test_irregular_batch_declines(self):
        v5 = FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0)
        v3 = FloatArray.Vector_3(1.0, 2.0, 3.0)
        off, size = IntArray.Vector_1(1), IntArray.Vector_1(2)
        kernel = FloatArray.Subarray.vectorized
        assert kernel([_obj_col([v5, v3]), _obj_col([off, off]),
                       _obj_col([size, size])]) is None
        assert kernel([_obj_col([v5, v5]),
                       _obj_col([off, IntArray.Vector_1(2)]),
                       _obj_col([size, size])]) is None


class TestConcatKernel:
    @staticmethod
    def _rows(n, rng, dims=(60,)):
        cells = rng.sample(range(int(np.prod(dims))), n)
        rows = []
        for flat in cells:
            idx = np.unravel_index(flat, dims, order="F")
            rows.append((IntArray.Vector(list(int(i) for i in idx)),
                         rng.uniform(-5, 5)))
        return rows

    def test_fast_path_matches_reader(self):
        rng = random.Random(5)
        rows = self._rows(40, rng)
        dims = IntArray.Vector_1(60)
        fast = FloatArray._concat_vectorized(rows, [60])
        assert fast is not None
        # Force the per-row reader by mixing in a bytearray index blob
        # (same bytes, but the fast path only trusts exact bytes).
        irregular = [(bytearray(rows[0][0]), rows[0][1])] + rows[1:]
        assert FloatArray._concat_vectorized(irregular, [60]) is None
        slow = FloatArray.Concat(irregular, dims)
        assert fast == slow

    def test_duplicate_indices_fall_back_to_last_write_wins(self):
        idx = IntArray.Vector_1(4)
        rows = [(idx, 1.0), (idx, 2.0)]
        assert FloatArray._concat_vectorized(rows, [10]) is None
        out = FloatArray.Concat(rows, IntArray.Vector_1(10))
        assert FloatArray.Item_1(out, 4) == 2.0

    def test_out_of_bounds_raises_canonical_error(self):
        rows = [(IntArray.Vector_1(12), 1.0)]
        with pytest.raises(BoundsError):
            FloatArray.Concat(rows, IntArray.Vector_1(10))

    def test_matrix_concat_fortran_order(self):
        rng = random.Random(9)
        rows = self._rows(12, rng, dims=(4, 5))
        out = FloatArray.Concat(rows, IntArray.Vector_2(4, 5))
        for idx_blob, value in rows:
            i, j = IntArray.Item_1(idx_blob, 0), \
                IntArray.Item_1(idx_blob, 1)
            assert FloatArray.Item_2(out, int(i), int(j)) == \
                pytest.approx(value)
