"""Inputs shared by the benchmark process and its server processes.

The evaluation tables come from ``benchmarks/table1_harness.load_tables``
and the sharded table from ``benchmarks/bench_sharded``; this module
only adds what those loaders lack: the reference values they draw, the
array cubes of ``wire_lookup`` and the ``wire_ingest`` INSERT stream.
"""

from __future__ import annotations

import numpy as np

#: Rows of Tscalar/Tvector (and of the sharded ``tb``).
ROWS = 100_000

#: ``wire_lookup`` cubes: 64 float64 32^3 arrays, 16 MiB in all, read
#: through 8^3 windows (the Section 2.1 interpolation neighbourhood).
CUBES = 64
CUBE_EDGE = 32
WINDOW_EDGE = 8

#: Rows per ``wire_ingest`` INSERT statement.
INSERT_ROWS = 10

CUBE_SQL = "SELECT MAX(v) FROM Tcube WHERE id = {}"
POINT_SQL = "SELECT SUM(FloatArray.Item_1(v, {})) FROM Tvector WHERE id = {}"
RANGE_SQL = ("SELECT SUM(FloatArray.Item_1(v, 0)), COUNT(*) FROM Tvector "
             "WHERE id >= {} AND id < {}")


def table1_values(rows: int) -> np.ndarray:
    """The values ``load_tables(rows)`` stores: it draws them from
    ``default_rng(0)``, row ``i`` of Tvector is ``Vector_5(*values[i])``."""
    return np.random.default_rng(0).standard_normal((rows, 5))


def make_cubes(seed: int, count: int = CUBES,
               edge: int = CUBE_EDGE) -> np.ndarray:
    return np.random.default_rng([seed, 1]).standard_normal(
        (count, edge, edge, edge))


def create_cube_table(db, cubes: np.ndarray | None = None):
    """``Tcube(id, v varbinary(max))``, one array blob per cube."""
    from repro.core import SqlArray
    from repro.engine import Column

    table = db.create_table("Tcube", [Column("id", "bigint"),
                                      Column("v", "varbinary_max")])
    if cubes is not None:
        table.insert_many((i, SqlArray.from_numpy(cube).to_blob())
                          for i, cube in enumerate(cubes))
    return table


def insert_values(rng: np.random.Generator) -> np.ndarray:
    """One INSERT statement's values.  Multiples of 1/1024 print exactly
    and add without rounding, so any range sum has one exact answer."""
    return rng.integers(-2 ** 20, 2 ** 20, (INSERT_ROWS, 5)) / 1024.0


def insert_sql(first_key: int, values: np.ndarray) -> str:
    rows = ", ".join(
        f"({first_key + i}, FloatArray.Vector_5("
        + ", ".join(repr(float(x)) for x in row) + "))"
        for i, row in enumerate(values))
    return f"INSERT INTO Tvector VALUES {rows}"


def sequential_sum(values) -> float:
    """Left-to-right float sum, the fold the engine's SUM uses."""
    acc = 0.0
    for x in values:
        acc += float(x)
    return acc
