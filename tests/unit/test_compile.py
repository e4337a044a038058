"""Unit tests for the plan-compilation layer (repro.engine.compile)."""

import pytest

from repro.engine import Engine
from repro.engine import compile as comp
from repro.engine.executor import ExecContext
from repro.engine.locks import LockRequest

from tests.oracles.engines import InterpretedEngine


def make_engine(compiled=True):
    """The production engine, or the reference interpreter over the same
    planner (``tests/oracles/engines.py``)."""
    engine = Engine() if compiled else InterpretedEngine()
    engine.create_database("db")
    txn = engine.begin()
    engine.execute_sync(txn, "db",
                        "CREATE TABLE t (k INTEGER PRIMARY KEY, "
                        "v INTEGER, s VARCHAR(20))")
    for k, v, s in [(1, 10, "alpha"), (2, None, "beta"), (3, 30, "gamma"),
                    (4, 10, "alps"), (5, -5, None)]:
        engine.execute_sync(txn, "db", "INSERT INTO t VALUES (?, ?, ?)",
                            (k, v, s))
    engine.commit(txn)
    return engine


def query(engine, sql, params=()):
    txn = engine.begin()
    try:
        return engine.execute_sync(txn, "db", sql, params)
    finally:
        engine.commit(txn)


@pytest.fixture
def eng():
    return make_engine()


class TestCompiledExpressions:
    """Semantics of compiled predicates (SQL three-valued logic)."""

    def test_null_comparison_filters_row(self, eng):
        # v = 10 is UNKNOWN for the NULL row: excluded, not an error.
        rows = query(eng, "SELECT k FROM t WHERE v = 10 ORDER BY k").rows
        assert rows == [(1,), (4,)]

    def test_not_of_unknown_stays_unknown(self, eng):
        rows = query(eng, "SELECT k FROM t WHERE NOT (v = 10) ORDER BY k").rows
        assert rows == [(3,), (5,)]  # NULL row excluded from both sides

    def test_or_with_null_short_circuit(self, eng):
        rows = query(eng, "SELECT k FROM t "
                          "WHERE v > 100 OR v IS NULL").rows
        assert rows == [(2,)]

    def test_like_translates_wildcards(self, eng):
        rows = query(eng, "SELECT k FROM t WHERE s LIKE 'al%' ORDER BY k").rows
        assert rows == [(1,), (4,)]
        rows = query(eng, "SELECT k FROM t WHERE s LIKE '_eta'").rows
        assert rows == [(2,)]

    def test_between_and_negation(self, eng):
        rows = query(eng, "SELECT k FROM t WHERE v BETWEEN 0 AND 20 "
                          "ORDER BY k").rows
        assert rows == [(1,), (4,)]
        rows = query(eng, "SELECT k FROM t WHERE v NOT BETWEEN 0 AND 20 "
                          "ORDER BY k").rows
        assert rows == [(3,), (5,)]  # NULL row: UNKNOWN either way

    def test_division_by_zero_yields_null(self, eng):
        rows = query(eng, "SELECT v / 0 FROM t WHERE k = 1").rows
        assert rows == [(None,)]

    def test_in_list_with_null_semantics(self, eng):
        # k IN (1, NULL) is TRUE for k=1, UNKNOWN (not FALSE) otherwise.
        rows = query(eng, "SELECT k FROM t WHERE k IN (1, NULL)").rows
        assert rows == [(1,)]

    def test_constant_fold_does_not_hoist_errors(self, eng):
        # 1/0 folds to NULL at row time, exactly like the interpreter.
        rows = query(eng, "SELECT k FROM t WHERE 1 / 0 = 1").rows
        assert rows == []

    def test_unbound_parameter_message(self, eng):
        from repro.errors import SqlError
        with pytest.raises(SqlError, match="parameter"):
            query(eng, "SELECT k FROM t WHERE v = ?", ())


class TestAggregateResultTypes:
    """SUM/MIN/MAX over INTEGER columns stay integers (like MySQL)."""

    @pytest.mark.parametrize("compiled", [True, False])
    def test_sum_over_integer_is_int(self, compiled):
        engine = make_engine(compiled)
        total = query(engine, "SELECT SUM(v) FROM t").scalar()
        assert total == 45
        assert type(total) is int

    @pytest.mark.parametrize("compiled", [True, False])
    def test_min_max_preserve_int(self, compiled):
        engine = make_engine(compiled)
        low, high = query(engine, "SELECT MIN(v), MAX(v) FROM t").rows[0]
        assert (low, high) == (-5, 30)
        assert type(low) is int and type(high) is int

    @pytest.mark.parametrize("compiled", [True, False])
    def test_avg_is_float(self, compiled):
        engine = make_engine(compiled)
        avg = query(engine, "SELECT AVG(v) FROM t").scalar()
        assert avg == 45 / 4
        assert type(avg) is float

    @pytest.mark.parametrize("compiled", [True, False])
    def test_count_ignores_null_distinct_dedupes(self, compiled):
        engine = make_engine(compiled)
        row = query(engine,
                    "SELECT COUNT(*), COUNT(v), COUNT(DISTINCT v) "
                    "FROM t").rows[0]
        assert row == (5, 4, 3)

    @pytest.mark.parametrize("compiled", [True, False])
    def test_empty_aggregates_are_null(self, compiled):
        engine = make_engine(compiled)
        query(engine, "DELETE FROM t")
        row = query(engine,
                    "SELECT COUNT(*), SUM(v), AVG(v), MIN(v) FROM t").rows[0]
        assert row == (0, None, None, None)


class TestCompiledPlanParity:
    """Compiled artifacts behave exactly like the interpreter."""

    def _pair(self):
        return make_engine(True), make_engine(False)

    def test_desc_sort_puts_nulls_last(self):
        for engine in self._pair():
            rows = query(engine, "SELECT k, v FROM t ORDER BY v DESC, k").rows
            assert rows == [(3, 30), (1, 10), (4, 10), (5, -5), (2, None)]

    def test_asc_sort_puts_nulls_first(self):
        for engine in self._pair():
            rows = query(engine, "SELECT k FROM t ORDER BY v, k").rows
            assert [r[0] for r in rows] == [2, 5, 1, 4, 3]

    def test_having_filters_groups(self):
        for engine in self._pair():
            rows = query(engine,
                         "SELECT v, COUNT(*) FROM t GROUP BY v "
                         "HAVING COUNT(*) > 1 ORDER BY v").rows
            assert rows == [(10, 2)]

    def test_for_update_takes_same_locks(self):
        footprints = []
        for engine in self._pair():
            txn = engine.begin()
            engine.execute_sync(txn, "db",
                                "SELECT k FROM t WHERE k = 1 FOR UPDATE")
            footprints.append(dict(engine.locks.held(txn.txn_id)))
            engine.commit(txn)
        assert footprints[0] == footprints[1]
        assert any(mode.name == "X" for mode in footprints[0].values())

    def test_dml_rowcounts_match(self):
        for engine in self._pair():
            assert query(engine, "UPDATE t SET v = 0 "
                                 "WHERE v > 5").rowcount == 3
            assert query(engine, "DELETE FROM t WHERE v = 0").rowcount == 3
            assert query(engine, "INSERT INTO t VALUES (9, 9, 'x')"
                         ).rowcount == 1
            assert query(engine, "SELECT COUNT(*) FROM t").scalar() == 3

    def test_cost_reports_match(self):
        results = [query(engine, "SELECT k FROM t WHERE v = 10 ORDER BY k")
                   for engine in self._pair()]
        assert results[0].cost == results[1].cost
        assert results[0].cost.rows_scanned == 5
        assert results[0].cost.rows_returned == 2


class TestCompiledCache:
    """The engine's one statement cache: db -> {sql -> (plan, runner)}."""

    @staticmethod
    def runner(engine, sql, db="db"):
        return engine._statements[db][sql][1]

    def test_statement_compiles_once(self, eng):
        sql = "SELECT k FROM t WHERE k = ?"
        query(eng, sql, (1,))
        first = self.runner(eng, sql)
        query(eng, sql, (2,))
        assert first is not None
        assert self.runner(eng, sql) is first

    def test_planning_alone_compiles_nothing(self, eng):
        sql = "SELECT k FROM t WHERE k = ?"
        plan = eng.plan("db", sql)
        assert eng._statements["db"][sql] == (plan, None)
        query(eng, sql, (1,))
        assert eng.plan("db", sql) is plan
        assert self.runner(eng, sql) is not None

    def test_ddl_invalidates_compiled_cache(self, eng):
        sql = "SELECT k FROM t WHERE v = 1"
        query(eng, sql)
        before = self.runner(eng, sql)
        assert before is not None
        # The B+Tree cannot index NULL keys; clear them before the DDL.
        query(eng, "DELETE FROM t WHERE v IS NULL")
        query(eng, "CREATE INDEX t_v ON t (v)")
        assert "db" not in eng._statements
        # The recompiled artifact runs against the new physical plan.
        assert query(eng, sql).rows == []
        after = self.runner(eng, sql)
        assert after is not None
        assert after is not before

    def test_ddl_in_other_database_keeps_cache(self, eng):
        sql = "SELECT k FROM t"
        query(eng, sql)
        before = self.runner(eng, sql)
        eng.create_database("other")
        txn = eng.begin()
        eng.execute_sync(txn, "other",
                         "CREATE TABLE x (a INTEGER PRIMARY KEY)")
        eng.execute_sync(txn, "other", "SELECT a FROM x")
        eng.commit(txn)
        assert self.runner(eng, sql) is before
        eng.drop_database("other")
        assert self.runner(eng, sql) is before

    def test_ddl_has_no_compiled_form(self, eng):
        # DDL runs through a throwaway runner: nothing to plan, nothing
        # worth caching (and its own invalidation would drop it anyway).
        ddl = "CREATE TABLE y (a INTEGER PRIMARY KEY)"
        query(eng, "SELECT k FROM t")
        assert query(eng, ddl).rowcount == 0
        assert "db" not in eng._statements
        query(eng, "SELECT a FROM y")
        assert ddl not in eng._statements["db"]

    def test_drop_database_clears_cache(self, eng):
        query(eng, "SELECT k FROM t")
        assert "db" in eng._statements
        eng.drop_database("db")
        assert "db" not in eng._statements


class TestRangeScanBatches:
    """``_compile_fetch_batches`` cuts a batch when it is full or when a
    lock request really has to go out — not before every first-time row
    lock."""

    ROWS = 600

    @pytest.fixture
    def scan(self):
        engine = Engine()
        engine.create_database("db")
        txn = engine.begin()
        engine.execute_sync(txn, "db", "CREATE TABLE r (k INTEGER PRIMARY "
                                       "KEY, g INTEGER, v INTEGER)")
        engine.execute_sync(txn, "db", "CREATE INDEX r_g ON r (g)")
        for k in range(3000):
            engine.execute_sync(txn, "db", "INSERT INTO r VALUES (?, ?, ?)",
                                (k, k, k % 7))
        engine.commit(txn)
        node = engine.plan("db", "SELECT k, v FROM r WHERE g >= ?").root.child
        assert type(node).__name__ == "IndexRangeScan"
        run = comp._compile_index_range_scan(node, False, batched=True)

        def items(txn):
            ctx = ExecContext(txn, engine.database("db"), engine.locks,
                              engine.buffer_pool, engine.wal,
                              (3000 - self.ROWS,))
            return run(ctx)

        return engine, items

    def test_fresh_row_locks_do_not_cut_batches(self, scan):
        engine, items = scan
        txn = engine.begin()
        batches = list(items(txn))
        assert all(type(b) is comp.Batch for b in batches)
        assert [len(b) for b in batches] == [
            comp.BATCH_SIZE, comp.BATCH_SIZE, self.ROWS - 2 * comp.BATCH_SIZE]
        assert len(engine.locks.held(txn.txn_id)) == self.ROWS + 1
        engine.commit(txn)

    def test_rows_before_a_wait_arrive_before_the_request(self, scan):
        engine, items = scan
        writer = engine.begin()
        engine.execute_sync(writer, "db", "UPDATE r SET v = 0 WHERE k = ?",
                            (3000 - self.ROWS + 100,))
        reader = engine.begin()
        gen = items(reader)
        first, request = next(gen), next(gen)
        assert [row[0] for row in first.rows] == list(range(2400, 2500))
        assert isinstance(request, LockRequest) and not request.granted
        engine.commit(writer)
        assert request.granted
        rest = list(gen)
        assert [len(b) for b in rest] == [256, 244]
        assert rest[0].rows[0] == (2500, 2500, 0)   # re-read after the wait
        engine.commit(reader)
