"""Microbenchmarks of the MiniSQL engine itself (wall-clock, not simulated).

These measure the Python engine's raw statement rates — useful when
tuning experiment scales, and a regression guard for the executor and
index paths that every simulated experiment leans on.

Two modes:

* ``pytest benchmarks/bench_engine_micro.py --benchmark-only`` — the
  pytest-benchmark suite (per-op statistics);
* ``python benchmarks/bench_engine_micro.py`` — plain mode: runs every
  group and writes ``BENCH_engine_micro.json`` (statements/sec per group)
  at the repository root, so the repo's perf trajectory is
  machine-readable. Rates are best-of-N to shrug off scheduler noise.
"""

import pytest

from repro.engine import Engine

from common import bench_main


def make_engine(rows: int = 2000):
    engine = Engine("micro")
    engine.create_database("db")
    txn = engine.begin()
    engine.execute_sync(txn, "db",
                        "CREATE TABLE t (k INTEGER PRIMARY KEY, "
                        "v INTEGER, s VARCHAR(20))")
    engine.execute_sync(txn, "db", "CREATE INDEX t_v ON t (v)")
    # Small dimension table for the join groups: t.v points into d.id,
    # d.grp fans d out 10 ways (selective via the d_grp index).
    engine.execute_sync(txn, "db",
                        "CREATE TABLE d (id INTEGER PRIMARY KEY, "
                        "grp INTEGER, label VARCHAR(20))")
    engine.execute_sync(txn, "db", "CREATE INDEX d_grp ON d (grp)")
    for k in range(rows):
        engine.execute_sync(txn, "db", "INSERT INTO t VALUES (?, ?, ?)",
                            (k, k % 50, f"s{k:06d}"))
    for i in range(100):
        engine.execute_sync(txn, "db", "INSERT INTO d VALUES (?, ?, ?)",
                            (i, i % 10, f"d{i:04d}"))
    engine.commit(txn)
    return engine


@pytest.fixture(scope="module")
def engine():
    return make_engine()


@pytest.mark.benchmark(group="engine-micro")
def test_point_select(benchmark, engine):
    txn = engine.begin()

    def op():
        return engine.execute_sync(
            txn, "db", "SELECT v FROM t WHERE k = ?", (777,))

    result = benchmark(op)
    engine.commit(txn)
    assert result.rows == [(777 % 50,)]


@pytest.mark.benchmark(group="engine-micro")
def test_secondary_index_select(benchmark, engine):
    txn = engine.begin()

    def op():
        return engine.execute_sync(
            txn, "db", "SELECT COUNT(*) FROM t WHERE v = ?", (7,))

    result = benchmark(op)
    engine.commit(txn)
    assert result.scalar() == 40


@pytest.mark.benchmark(group="engine-micro")
def test_range_scan(benchmark, engine):
    txn = engine.begin()

    def op():
        return engine.execute_sync(
            txn, "db",
            "SELECT k FROM t WHERE k >= ? AND k < ? ORDER BY k",
            (100, 200))

    result = benchmark(op)
    engine.commit(txn)
    assert result.rowcount == 100


@pytest.mark.benchmark(group="engine-micro")
def test_update_commit_cycle(benchmark):
    engine = make_engine(500)
    counter = [0]

    def op():
        counter[0] += 1
        txn = engine.begin()
        engine.execute_sync(txn, "db",
                            "UPDATE t SET v = ? WHERE k = ?",
                            (counter[0] % 100, counter[0] % 500))
        engine.commit(txn)

    benchmark(op)


@pytest.mark.benchmark(group="engine-micro")
def test_aggregate_group_by(benchmark, engine):
    txn = engine.begin()

    def op():
        return engine.execute_sync(
            txn, "db",
            "SELECT v, COUNT(*) FROM t GROUP BY v ORDER BY v LIMIT 10")

    result = benchmark(op)
    engine.commit(txn)
    assert len(result.rows) == 10


@pytest.mark.benchmark(group="engine-micro")
def test_join_lookup(benchmark, engine):
    txn = engine.begin()

    def op():
        return engine.execute_sync(
            txn, "db",
            "SELECT t.k, d.label FROM t, d WHERE d.id = t.v "
            "AND t.k >= ? AND t.k < ?", (100, 200))

    result = benchmark(op)
    engine.commit(txn)
    assert result.rowcount == 100


@pytest.mark.benchmark(group="engine-micro")
def test_join_reorder(benchmark, engine):
    txn = engine.begin()

    def op():
        return engine.execute_sync(
            txn, "db",
            "SELECT COUNT(*) FROM t, d WHERE t.v = d.id AND d.grp = ?",
            (3,))

    result = benchmark(op)
    engine.commit(txn)
    assert result.scalar() == 200


@pytest.mark.benchmark(group="engine-micro")
def test_analytic_topn(benchmark, engine):
    txn = engine.begin()

    def op():
        return engine.execute_sync(
            txn, "db",
            "SELECT k, v, s FROM t WHERE v >= ? ORDER BY s DESC LIMIT 10",
            (10,))

    result = benchmark(op)
    engine.commit(txn)
    assert result.rowcount == 10


@pytest.mark.benchmark(group="engine-micro")
def test_analytic_global_agg(benchmark, engine):
    txn = engine.begin()

    def op():
        return engine.execute_sync(
            txn, "db",
            "SELECT COUNT(*), SUM(v), MIN(k), MAX(k) FROM t WHERE v < ?",
            (25,))

    result = benchmark(op)
    engine.commit(txn)
    assert result.rows[0][0] == 1000


# Best-sellers' shape: an index range scan over ~400 rows -> GROUP BY ->
# ORDER BY aggregate DESC, key LIMIT 10, in a transaction of its own so
# every row lock is a first-time grant.
RANGE_GROUP_TOPN = ("SELECT s, SUM(k) AS total FROM t WHERE v >= ? "
                    "GROUP BY s ORDER BY total DESC, s LIMIT 10")


@pytest.mark.benchmark(group="engine-micro")
def test_range_group_topn(benchmark, engine):
    def op():
        txn = engine.begin()
        result = engine.execute_sync(txn, "db", RANGE_GROUP_TOPN, (40,))
        engine.commit(txn)
        return result

    result = benchmark(op)
    assert result.rows[0] == ("s001999", 1999)
    assert result.cost.rows_scanned == 400


# A tenant's initial load, as ``ClusterController.bulk_load`` lands it on
# each replica: 8,000 KV rows in key order into a fresh table, plus as
# many rows into a table whose secondary index receives its keys out of
# order. One op is both loads into a new database.
BULK_DDL = ["CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)",
            "CREATE TABLE u (k INTEGER PRIMARY KEY, s VARCHAR(20))",
            "CREATE INDEX u_s ON u (s)"]


def bulk_rows(n: int = 8000):
    return ([(k, 0) for k in range(n)],
            [(k, f"s{k * 7919 % n:06d}") for k in range(n)])


def bulk_load(engine, rows):
    kv, unsorted = rows
    engine.create_database_from_ddl("bulk", BULK_DDL)
    engine.load_table_rows("bulk", "kv", kv)
    engine.load_table_rows("bulk", "u", unsorted)
    engine.drop_database("bulk")


@pytest.mark.benchmark(group="engine-micro")
def test_bulk_load(benchmark):
    engine, rows = Engine("micro"), bulk_rows()
    benchmark(bulk_load, engine, rows)
    assert not engine.hosts("bulk")


# -- plain mode ---------------------------------------------------------------


def _plain_groups(smoke: bool = False):
    """(name, inner-loop size, statement runner factory) per group.

    Each factory takes an engine and returns a zero-argument op running
    one statement; read-only groups share one long-lived transaction the
    way the pytest variants do. A ``bulk_load`` op is one load of two
    tables into a database of its own (``smoke``: 300 rows each).
    """

    def query(engine, sql, params=()):
        txn = engine.begin()

        def op():
            return engine.execute_sync(txn, "db", sql, params)

        return op

    def update_cycle(engine):
        counter = [0]

        def op():
            counter[0] += 1
            txn = engine.begin()
            engine.execute_sync(txn, "db", "UPDATE t SET v = ? WHERE k = ?",
                                (counter[0] % 100, counter[0] % 500))
            engine.commit(txn)

        return op

    def range_group_topn(engine):
        def op():
            txn = engine.begin()
            engine.execute_sync(txn, "db", RANGE_GROUP_TOPN, (40,))
            engine.commit(txn)

        return op

    def bulk(engine):
        rows = bulk_rows(300 if smoke else 8000)
        return lambda: bulk_load(engine, rows)

    return [
        ("point_select", 3000,
         lambda e: query(e, "SELECT v FROM t WHERE k = ?", (777,))),
        ("secondary_index_select", 1000,
         lambda e: query(e, "SELECT COUNT(*) FROM t WHERE v = ?", (7,))),
        ("range_scan", 400,
         lambda e: query(e, "SELECT k FROM t WHERE k >= ? AND k < ? "
                            "ORDER BY k", (100, 200))),
        ("update_commit_cycle", 1000, update_cycle),
        ("aggregate_group_by", 60,
         lambda e: query(e, "SELECT v, COUNT(*) FROM t "
                            "GROUP BY v ORDER BY v LIMIT 10")),
        ("join_lookup", 100,
         lambda e: query(e, "SELECT t.k, d.label FROM t, d "
                            "WHERE d.id = t.v AND t.k >= ? AND t.k < ?",
                        (100, 200))),
        ("join_reorder", 100,
         lambda e: query(e, "SELECT COUNT(*) FROM t, d "
                            "WHERE t.v = d.id AND d.grp = ?", (3,))),
        ("analytic_topn", 100,
         lambda e: query(e, "SELECT k, v, s FROM t WHERE v >= ? "
                            "ORDER BY s DESC LIMIT 10", (10,))),
        ("analytic_global_agg", 200,
         lambda e: query(e, "SELECT COUNT(*), SUM(v), MIN(k), MAX(k) "
                            "FROM t WHERE v < ?", (25,))),
        ("range_group_topn", 100, range_group_topn),
        ("bulk_load", 5, bulk),
    ]


def run_plain(repeats: int = 5, smoke: bool = False):
    """Measure statements/sec per group (best of ``repeats``).

    ``smoke`` shrinks tables and inner loops so CI can exercise every
    group in a few seconds (numbers are then functional coverage, not
    results).
    """
    import time

    rates = {}
    for name, inner, factory in _plain_groups(smoke):
        rows = 500 if name == "update_commit_cycle" else 2000
        if smoke:
            rows = min(rows, 300)
            inner = min(inner, 10)
        op = factory(make_engine(rows))
        op()  # warm the statement cache
        best = 0.0
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(inner):
                op()
            best = max(best, inner / (time.perf_counter() - start))
        rates[name] = {"statements_per_s": round(best, 1)}
    return rates


def plain_mode(args):
    import platform

    if args.smoke:
        rates = run_plain(repeats=1, smoke=True)
    else:
        rates = run_plain(repeats=args.repeats)
    payload = {
        "benchmark": "engine_micro",
        "unit": "statements_per_sec",
        "python": platform.python_version(),
        "groups": rates,
    }
    width = max(len(name) for name in rates)
    lines = [f"{'group':<{width}}  {'statements/s':>12}"]
    for name, group in rates.items():
        lines.append(f"{name:<{width}}  {group['statements_per_s']:>12.1f}")
    return payload, "\n".join(lines)


def main(argv=None) -> int:
    def options(parser):
        parser.add_argument("--repeats", type=int, default=5,
                            help="timing repeats per group (best is kept)")
    return bench_main("engine_micro",
                      "MiniSQL engine microbenchmark (plain mode)",
                      "tiny tables and loops (CI functional pass)",
                      plain_mode, argv, options)


if __name__ == "__main__":
    raise SystemExit(main())
