"""Top-N fusion: ORDER BY + LIMIT must equal full-sort-then-slice.

Both executors (production's compiled one and the reference interpreter
of ``tests/oracles/``) fuse ``Limit(Sort)`` into a bounded heap
selection. These tests pin the fused result to the unfused oracle — the
same query without LIMIT, sliced in Python — over the awkward cases:
NULL ordering, DESC keys, multi-key sorts, OFFSET, and duplicate sort
keys (stability).
"""

import pytest

from repro.engine import Engine

from tests.oracles.engines import InterpretedEngine

ROWS = [
    (0, None, "b"), (1, 5, "a"), (2, 5, "c"), (3, None, "a"),
    (4, 1, "b"), (5, 9, "a"), (6, 1, "a"), (7, 9, "c"),
    (8, 0, "b"), (9, 7, "a"),
]

QUERIES = [
    "SELECT k, v FROM t ORDER BY v{limit}",
    "SELECT k, v FROM t ORDER BY v DESC{limit}",
    "SELECT k, v, s FROM t ORDER BY v DESC, s, k{limit}",
    "SELECT k FROM t ORDER BY s DESC, v{limit}",
    "SELECT v, s FROM t WHERE k >= 2 ORDER BY s, v DESC{limit}",
    "SELECT k + v FROM t WHERE v IS NOT NULL ORDER BY v, k{limit}",
]

LIMITS = [" LIMIT 3", " LIMIT 3 OFFSET 2", " LIMIT 0", " LIMIT 20",
          " LIMIT 20 OFFSET 4"]


def build(compiled):
    engine = Engine() if compiled else InterpretedEngine()
    engine.create_database("db")
    txn = engine.begin()
    engine.execute_sync(txn, "db",
                        "CREATE TABLE t (k INTEGER PRIMARY KEY, "
                        "v INTEGER, s VARCHAR(5))")
    for row in ROWS:
        engine.execute_sync(txn, "db", "INSERT INTO t VALUES (?, ?, ?)",
                            row)
    engine.commit(txn)
    return engine


def rows_for(engine, sql):
    txn = engine.begin()
    result = engine.execute_sync(txn, "db", sql)
    engine.commit(txn)
    return result.rows


@pytest.mark.parametrize("compiled", [True, False],
                         ids=["compiled", "interpreted"])
@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("limit", LIMITS)
def test_fused_topn_equals_sort_then_slice(compiled, query, limit):
    engine = build(compiled)
    full = rows_for(engine, query.format(limit=""))
    fused = rows_for(engine, query.format(limit=limit))
    n = int(limit.split("LIMIT ")[1].split()[0])
    offset = int(limit.split("OFFSET ")[1]) if "OFFSET" in limit else 0
    assert fused == full[offset:offset + n]


@pytest.mark.parametrize("compiled", [True, False],
                         ids=["compiled", "interpreted"])
def test_fusion_is_stable_on_duplicate_keys(compiled):
    """Rows tied on every sort key keep their underlying order, exactly
    as the full stable sort would emit them."""
    engine = build(compiled)
    full = rows_for(engine, "SELECT k FROM t ORDER BY s")
    for n in range(len(ROWS) + 1):
        assert rows_for(engine,
                        f"SELECT k FROM t ORDER BY s LIMIT {n}") == full[:n]
