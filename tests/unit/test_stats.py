"""Unit tests for catalogue statistics sketches and engine maintenance."""

from repro.engine import Engine, EngineConfig
from repro.engine.stats import UNKNOWN, ColumnStats, TableStats
from tests.oracles.stats_rebuild import rebuild


class TestColumnStats:
    def test_add_remove_counts(self):
        col = ColumnStats()
        for v in [3, 3, 5, None, 7]:
            col.add(v)
        assert col.counts == {3: 2, 5: 1, 7: 1}
        assert col.nulls == 1 and col.non_null == 4
        assert col.distinct == 3
        col.remove(3)
        assert col.counts[3] == 1
        col.remove(None)
        assert col.nulls == 0

    def test_bounds_track_inserts(self):
        col = ColumnStats()
        for v in [5, 2, 9]:
            col.add(v)
        assert (col.min, col.max) == (2, 9)

    def test_bounds_shrink_on_boundary_delete(self):
        col = ColumnStats()
        for v in [2, 5, 9]:
            col.add(v)
        col.remove(9)
        assert (col.min, col.max) == (2, 5)
        col.remove(2)
        assert (col.min, col.max) == (5, 5)
        col.remove(5)
        assert (col.min, col.max) == (None, None)

    def test_interior_delete_keeps_bounds_fresh(self):
        col = ColumnStats()
        for v in [2, 5, 9]:
            col.add(v)
        col.remove(5)
        assert (col.min, col.max) == (2, 9)

    def test_eq_fraction_exact_and_unknown(self):
        col = ColumnStats()
        for v in [1, 1, 1, 2]:
            col.add(v)
        assert col.eq_fraction(1, 4) == 0.75
        assert col.eq_fraction(42, 4) == 0.0
        assert col.eq_fraction(UNKNOWN, 4) == 0.5  # 1/ndv

    def test_range_fraction_interpolates_counts(self):
        col = ColumnStats()
        for v in [1, 2, 2, 3, 10]:
            col.add(v)
        assert col.range_fraction(2, 3, True, True, 5) == 0.6
        assert col.range_fraction(2, 3, False, True, 5) == 0.2
        assert col.range_fraction(None, 3, True, True, 5) == 0.8
        assert col.range_fraction(UNKNOWN, 3, True, True, 5) == 0.30


class TestTableStats:
    def test_apply_delta_matches_rebuild(self):
        stats = TableStats(2)
        stats.add_row((1, "a"))
        stats.add_row((2, "b"))
        deltas = [
            ("insert", None, (3, "c")),
            ("update", (1, "a"), (1, "z")),
            ("delete", (2, "b"), None),
        ]
        for kind, before, after in deltas:
            stats.apply_delta(kind, before, after)
        assert stats.row_count == 2
        assert stats.columns[1].counts == {"z": 1, "c": 1}
        assert stats.snapshot() == rebuild(
            2, [(1, "z"), (3, "c")]).snapshot()

    def test_rebuild_matches_incremental(self):
        stats = TableStats(2)
        rows = [(1, None), (2, "x"), (3, "x")]
        for row in rows:
            stats.add_row(row)
        assert rebuild(2, rows).snapshot() == stats.snapshot()


class TestEngineMaintenance:
    def _engine(self):
        engine = Engine(config=EngineConfig())
        engine.create_database("db")
        txn = engine.begin()
        engine.execute_sync(txn, "db",
                            "CREATE TABLE t (k INTEGER PRIMARY KEY, "
                            "v INTEGER)")
        engine.commit(txn)
        return engine

    def test_commit_applies_deltas(self):
        engine = self._engine()
        txn = engine.begin()
        engine.execute_sync(txn, "db", "INSERT INTO t VALUES (1, 10)")
        engine.execute_sync(txn, "db", "INSERT INTO t VALUES (2, 10)")
        # Uncommitted changes are invisible to the planner's statistics.
        assert engine.database("db").stats["t"].row_count == 0
        engine.commit(txn)
        stats = engine.database("db").stats["t"]
        assert stats.row_count == 2
        assert stats.columns[1].counts == {10: 2}

    def test_abort_leaves_stats_untouched(self):
        engine = self._engine()
        txn = engine.begin()
        engine.execute_sync(txn, "db", "INSERT INTO t VALUES (1, 10)")
        engine.abort(txn)
        assert engine.database("db").stats["t"].row_count == 0

    def test_update_and_delete_deltas(self):
        engine = self._engine()
        txn = engine.begin()
        for k in range(4):
            engine.execute_sync(txn, "db", "INSERT INTO t VALUES (?, ?)",
                                (k, k))
        engine.commit(txn)
        txn = engine.begin()
        engine.execute_sync(txn, "db", "UPDATE t SET v = 9 WHERE k = 0")
        engine.execute_sync(txn, "db", "DELETE FROM t WHERE k = 3")
        engine.commit(txn)
        stats = engine.database("db").stats["t"]
        assert stats.row_count == 3
        assert stats.columns[1].counts == {1: 1, 2: 1, 9: 1}
        assert stats.columns[0].max == 2
