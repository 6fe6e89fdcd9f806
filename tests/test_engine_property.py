"""Property tests against an independent reference: stdlib ``sqlite3``.

Hypothesis draws queries over the operator corners the engine must get
right — NULL runs in a group key, DISTINCT, LIMIT/OFFSET windows and
filters — and every answer must equal what an in-memory sqlite database
loaded with the same rows returns.

Two dialect mappings are allowed, and no more:

* ``order by g`` becomes ``order by g nulls last``: this engine sorts NULL
  after every VARCHAR, sqlite sorts it first;
* floats compare with a 1e-9 relative tolerance (summation order differs).
"""

import math
import sqlite3
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import EonCluster

pytestmark = pytest.mark.engine

#: 90 rows, 3-row NULL runs in ``g``, group keys interleaved, and a float
#: column whose partial sums are order-sensitive.
ROWS = [
    (
        i,
        None if (i // 3) % 4 == 0 else f"g{i % 5}",
        float(i % 13) * 0.375 - 1.5,
    )
    for i in range(90)
]

DDL = "create table t (k int, g varchar, v float)"


@pytest.fixture(scope="module")
def cluster():
    c = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=29)
    c.execute(DDL)
    c.load("t", ROWS)
    return c


@pytest.fixture(scope="module")
def reference():
    db = sqlite3.connect(":memory:")
    db.execute(DDL)
    db.executemany("insert into t values (?, ?, ?)", ROWS)
    yield db
    db.close()


def sqlite_dialect(sql: str) -> str:
    return sql.replace("order by g", "order by g nulls last")


def same_rows(got: List[tuple], expected: List[tuple]) -> bool:
    if len(got) != len(expected):
        return False
    for row, ref in zip(got, expected):
        if len(row) != len(ref):
            return False
        for value, want in zip(row, ref):
            if isinstance(value, float) and isinstance(want, float):
                if not math.isclose(value, want, rel_tol=1e-9):
                    return False
            elif value != want:
                return False
    return True


@st.composite
def queries(draw) -> str:
    """A query whose output is deterministic (totally ordered or a single
    aggregate row), so row-by-row comparison is well-defined."""
    kind = draw(st.sampled_from(
        ["agg", "group", "distinct", "window", "count_distinct"]
    ))
    where = draw(st.sampled_from([
        "", " where g is null", " where g is not null",
        " where k < 47", " where v > 0 and k >= 11",
    ]))
    if kind == "agg":
        return f"select count(*), sum(v), min(k), max(v) from t{where}"
    if kind == "group":
        return (
            f"select g, count(*) c, sum(v) s from t{where} "
            "group by g order by g"
        )
    if kind == "count_distinct":
        return f"select count(distinct g), count(distinct k) from t{where}"
    limit = draw(st.integers(min_value=0, max_value=95))
    offset = draw(st.integers(min_value=0, max_value=95))
    if kind == "distinct":
        return (
            f"select distinct g from t{where} order by g "
            f"limit {limit} offset {offset}"
        )
    return (
        f"select k, g, v from t{where} order by k "
        f"limit {limit} offset {offset}"
    )


class TestSqliteReference:
    @given(sql=queries())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_matches_sqlite(self, cluster, reference, sql):
        got = cluster.query(sql).rows.to_pylist()
        expected = reference.execute(sqlite_dialect(sql)).fetchall()
        assert same_rows(got, expected), f"{sql!r}: engine={got} sqlite={expected}"

