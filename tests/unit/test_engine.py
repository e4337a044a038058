"""Unit tests for the engine facade: SQL behaviour and transactions."""

import pytest

from repro.engine import Engine, EngineConfig, TxnState
from repro.engine import engine as engine_module
from repro.errors import (ConstraintError, SchemaError, SqlError,
                          TransactionError, WouldBlockError)


@pytest.fixture
def shop():
    eng = Engine("shop-engine")
    eng.create_database("shop")
    txn = eng.begin()
    eng.execute_sync(txn, "shop",
                     "CREATE TABLE item (i_id INT PRIMARY KEY, "
                     "i_title VARCHAR(60), i_cost FLOAT, i_a_id INT)")
    eng.execute_sync(txn, "shop",
                     "CREATE TABLE author (a_id INT PRIMARY KEY, "
                     "a_name VARCHAR(40))")
    eng.execute_sync(txn, "shop", "CREATE INDEX item_a ON item (i_a_id)")
    for a in range(4):
        eng.execute_sync(txn, "shop",
                         "INSERT INTO author VALUES (?, ?)", (a, f"auth{a}"))
    for i in range(40):
        eng.execute_sync(txn, "shop", "INSERT INTO item VALUES (?, ?, ?, ?)",
                         (i, f"t{i:03d}", float(i), i % 4))
    eng.commit(txn)
    return eng


def q(engine, sql, params=()):
    txn = engine.begin()
    try:
        return engine.execute_sync(txn, "shop", sql, params)
    finally:
        engine.commit(txn)


class TestQueries:
    def test_point_select(self, shop):
        result = q(shop, "SELECT i_title FROM item WHERE i_id = ?", (5,))
        assert result.rows == [("t005",)]
        assert result.columns == ["i_title"]

    def test_select_star(self, shop):
        result = q(shop, "SELECT * FROM author WHERE a_id = 1")
        assert result.rows == [(1, "auth1")]

    def test_order_and_limit(self, shop):
        result = q(shop, "SELECT i_id FROM item ORDER BY i_cost DESC LIMIT 3")
        assert [r[0] for r in result.rows] == [39, 38, 37]

    def test_offset(self, shop):
        result = q(shop,
                   "SELECT i_id FROM item ORDER BY i_id LIMIT 2 OFFSET 5")
        assert [r[0] for r in result.rows] == [5, 6]

    def test_aggregates(self, shop):
        result = q(shop, "SELECT COUNT(*), MIN(i_cost), MAX(i_cost), "
                         "SUM(i_cost), AVG(i_cost) FROM item")
        assert result.rows[0] == (40, 0.0, 39.0, 780.0, 19.5)

    def test_aggregate_empty_input(self, shop):
        result = q(shop, "SELECT COUNT(*), SUM(i_cost) FROM item "
                         "WHERE i_id > 999")
        assert result.rows == [(0, None)]

    def test_group_by_with_having_style_filter(self, shop):
        result = q(shop, "SELECT i_a_id, COUNT(*) cnt FROM item "
                         "GROUP BY i_a_id ORDER BY i_a_id")
        assert result.rows == [(0, 10), (1, 10), (2, 10), (3, 10)]

    def test_join(self, shop):
        result = q(shop, "SELECT a_name FROM item, author "
                         "WHERE i_a_id = a_id AND i_id = 6")
        assert result.rows == [("auth2",)]

    def test_distinct(self, shop):
        result = q(shop, "SELECT DISTINCT i_a_id FROM item ORDER BY i_a_id")
        assert [r[0] for r in result.rows] == [0, 1, 2, 3]

    def test_in_list(self, shop):
        result = q(shop, "SELECT COUNT(*) FROM item WHERE i_a_id IN (0, 1)")
        assert result.scalar() == 20

    def test_between(self, shop):
        result = q(shop, "SELECT COUNT(*) FROM item "
                         "WHERE i_id BETWEEN 10 AND 19")
        assert result.scalar() == 10

    def test_like(self, shop):
        result = q(shop, "SELECT COUNT(*) FROM item WHERE i_title LIKE 't03%'")
        assert result.scalar() == 10

    def test_arithmetic_projection(self, shop):
        result = q(shop, "SELECT i_cost * 2 + 1 FROM item WHERE i_id = 10")
        assert result.scalar() == 21.0

    def test_is_null(self, shop):
        txn = shop.begin()
        shop.execute_sync(txn, "shop", "INSERT INTO item VALUES (?, ?, ?, ?)",
                          (999, "nul", None, 0))
        shop.commit(txn)
        result = q(shop, "SELECT i_id FROM item WHERE i_cost IS NULL")
        assert result.rows == [(999,)]

    def test_division_by_zero_yields_null(self, shop):
        result = q(shop, "SELECT i_cost / 0 FROM item WHERE i_id = 1")
        assert result.scalar() is None

    def test_scalar_empty(self, shop):
        assert q(shop, "SELECT i_id FROM item WHERE i_id = -1").scalar() is None


class TestDml:
    def test_update_rowcount(self, shop):
        result = q(shop, "UPDATE item SET i_cost = 0 WHERE i_a_id = 2")
        assert result.rowcount == 10

    def test_delete_and_count(self, shop):
        q(shop, "DELETE FROM item WHERE i_a_id = 3")
        assert q(shop, "SELECT COUNT(*) FROM item").scalar() == 30

    def test_insert_duplicate_pk(self, shop):
        txn = shop.begin()
        with pytest.raises(ConstraintError):
            shop.execute_sync(txn, "shop",
                              "INSERT INTO item VALUES (1, 'd', 0, 0)")
        shop.abort(txn)

    def test_multi_row_insert(self, shop):
        result = q(shop, "INSERT INTO author VALUES (100, 'x'), (101, 'y')")
        assert result.rowcount == 2

    def test_update_via_secondary_index(self, shop):
        result = q(shop, "UPDATE item SET i_title = 'z' WHERE i_a_id = 1")
        assert result.rowcount == 10
        assert q(shop, "SELECT COUNT(*) FROM item WHERE i_title = 'z'"
                 ).scalar() == 10


class TestTransactions:
    def test_abort_undoes_everything(self, shop):
        txn = shop.begin()
        shop.execute_sync(txn, "shop", "INSERT INTO author VALUES (50, 'n')")
        shop.execute_sync(txn, "shop",
                          "UPDATE item SET i_cost = 1000 WHERE i_id = 0")
        shop.execute_sync(txn, "shop", "DELETE FROM item WHERE i_id = 1")
        shop.abort(txn)
        assert q(shop, "SELECT COUNT(*) FROM author WHERE a_id = 50"
                 ).scalar() == 0
        assert q(shop, "SELECT i_cost FROM item WHERE i_id = 0").scalar() == 0.0
        assert q(shop, "SELECT COUNT(*) FROM item WHERE i_id = 1").scalar() == 1

    def test_abort_restores_indexes(self, shop):
        txn = shop.begin()
        shop.execute_sync(txn, "shop",
                          "UPDATE item SET i_a_id = 99 WHERE i_id = 5")
        shop.abort(txn)
        result = q(shop, "SELECT COUNT(*) FROM item WHERE i_a_id = 99")
        assert result.scalar() == 0

    def test_commit_after_abort_rejected(self, shop):
        txn = shop.begin()
        shop.abort(txn)
        with pytest.raises(TransactionError):
            shop.commit(txn)

    def test_double_abort_is_noop(self, shop):
        txn = shop.begin()
        shop.abort(txn)
        shop.abort(txn)

    def test_execute_after_commit_rejected(self, shop):
        txn = shop.begin()
        shop.commit(txn)
        with pytest.raises(TransactionError):
            shop.execute_sync(txn, "shop", "SELECT 1 FROM item")

    def test_prepare_then_commit(self, shop):
        txn = shop.begin()
        shop.execute_sync(txn, "shop",
                          "UPDATE item SET i_cost = 7 WHERE i_id = 7")
        shop.prepare(txn)
        assert txn.state is TxnState.PREPARED
        shop.commit(txn)
        assert q(shop, "SELECT i_cost FROM item WHERE i_id = 7").scalar() == 7.0

    def test_prepare_releases_read_locks(self, shop):
        txn1 = shop.begin()
        shop.execute_sync(txn1, "shop", "SELECT i_cost FROM item WHERE i_id = 3")
        shop.execute_sync(txn1, "shop",
                          "UPDATE item SET i_cost = 1 WHERE i_id = 4")
        shop.prepare(txn1)
        # Another txn can now write the row txn1 only read...
        txn2 = shop.begin()
        shop.execute_sync(txn2, "shop",
                          "UPDATE item SET i_cost = 2 WHERE i_id = 3")
        # ...but not the row txn1 wrote.
        with pytest.raises(WouldBlockError):
            shop.execute_sync(txn2, "shop",
                              "UPDATE item SET i_cost = 2 WHERE i_id = 4")
        shop.abort(txn2)
        shop.commit(txn1)

    def test_prepare_retains_read_locks_when_disabled(self, monkeypatch):
        monkeypatch.setattr(engine_module, "RELEASE_READ_LOCKS_AT_PREPARE",
                            False)
        eng = Engine("strict")
        eng.create_database("shop")
        txn = eng.begin()
        eng.execute_sync(txn, "shop",
                         "CREATE TABLE item (i_id INT PRIMARY KEY, i_cost FLOAT)")
        eng.execute_sync(txn, "shop", "INSERT INTO item VALUES (3, 0)")
        eng.commit(txn)
        txn1 = eng.begin()
        eng.execute_sync(txn1, "shop", "SELECT i_cost FROM item WHERE i_id = 3")
        eng.execute_sync(txn1, "shop",
                         "UPDATE item SET i_cost = 5 WHERE i_id = 3")
        eng.prepare(txn1)
        txn2 = eng.begin()
        with pytest.raises(WouldBlockError):
            eng.execute_sync(txn2, "shop",
                             "UPDATE item SET i_cost = 9 WHERE i_id = 3")
        eng.abort(txn2)
        eng.commit(txn1)

    def test_abort_prepared_txn(self, shop):
        txn = shop.begin()
        shop.execute_sync(txn, "shop",
                          "UPDATE item SET i_cost = 77 WHERE i_id = 7")
        shop.prepare(txn)
        shop.abort(txn)
        assert q(shop, "SELECT i_cost FROM item WHERE i_id = 7").scalar() == 7.0


class TestCommitReleasesUndo:
    def test_commit_folds_undo_into_stats_and_drops_it(self, shop):
        stats = shop.database("shop").stats["item"]
        assert stats.row_count == 40
        txn = shop.begin()
        shop.execute_sync(txn, "shop", "INSERT INTO item VALUES (?, ?, ?, ?)",
                          (100, "new", 1.0, 2))
        shop.execute_sync(txn, "shop", "DELETE FROM item WHERE i_id < 3")
        shop.execute_sync(txn, "shop",
                          "UPDATE item SET i_a_id = 9 WHERE i_id = 5")
        assert len(txn.undo) == 5
        assert stats.row_count == 40  # uncommitted work is not counted
        shop.commit(txn)
        assert txn.undo == []
        # An engine-local transaction leaves the table as it finishes.
        assert txn.txn_id not in shop.transactions
        assert stats.row_count == 38
        a_id = stats.columns[3]
        assert a_id.eq_fraction(9, stats.row_count) == 1 / 38


class TestEngineConfigSurface:
    def test_option_count_is_pinned(self):
        """Adding an engine switch means deleting a line of this test
        (ROADMAP north-star 2: one implementation per mechanism)."""
        import dataclasses
        assert {f.name for f in dataclasses.fields(EngineConfig)} == {
            "rows_per_page",
            "buffer_pool_pages",
            "btree_order",
            "nonlocking_reads",
            "cpu_cost_per_row_us",
            "cpu_cost_per_statement_us",
            "page_hit_us",
            "page_miss_ms",
            "log_flush_ms",
        }


class TestEngineAdmin:
    def test_duplicate_database(self, shop):
        with pytest.raises(SchemaError):
            shop.create_database("shop")

    def test_unknown_database(self, shop):
        txn = shop.begin()
        with pytest.raises(SchemaError):
            shop.execute_sync(txn, "nope", "SELECT 1 FROM item")
        shop.abort(txn)

    def test_drop_database_clears_state(self, shop):
        shop.drop_database("shop")
        assert not shop.hosts("shop")

    def test_plan_cache_reused(self, shop):
        sql = "SELECT i_id FROM item WHERE i_id = ?"
        q(shop, sql, (1,))
        first = shop.plan("shop", sql)
        q(shop, sql, (2,))
        assert shop.plan("shop", sql) is first

    def test_ddl_invalidates_plan_cache(self, shop):
        sql = "SELECT i_id FROM item WHERE i_a_id = 1"
        q(shop, sql)
        first = shop.plan("shop", sql)
        q(shop, "CREATE INDEX extra ON item (i_cost)")
        assert shop.plan("shop", sql) is not first

    def test_create_index_backfills(self, shop):
        q(shop, "CREATE INDEX by_cost ON item (i_cost)")
        result = q(shop, "SELECT i_id FROM item WHERE i_cost = 5.0")
        assert result.rows == [(5,)]

    def test_unsupported_statement(self, shop):
        txn = shop.begin()
        with pytest.raises(SqlError):
            shop.execute_sync(txn, "shop", "GRANT ALL ON item")
        shop.abort(txn)

    def test_snapshot_and_load(self, shop):
        rows = shop.snapshot_table("shop", "author")
        assert len(rows) == 4
        other = Engine("copy-target")
        other.create_database("shop")
        txn = other.begin()
        other.execute_sync(txn, "shop",
                           "CREATE TABLE author (a_id INT PRIMARY KEY, "
                           "a_name VARCHAR(40))")
        other.commit(txn)
        other.load_table_rows("shop", "author", rows)
        txn = other.begin()
        assert other.execute_sync(txn, "shop",
                                  "SELECT COUNT(*) FROM author").scalar() == 4
        other.commit(txn)


class TestUncontendedLocksAllocateNothing:
    """A lock granted without waiting never becomes a ``LockRequest``."""

    @pytest.fixture
    def requests(self, monkeypatch):
        from repro.engine.locks import LockRequest
        made = []
        init = LockRequest.__init__

        def counting_init(self, txn_id, resource, mode):
            made.append((txn_id, resource, mode))
            init(self, txn_id, resource, mode)

        monkeypatch.setattr(LockRequest, "__init__", counting_init)
        return made

    def test_tpcw_interactions_on_one_session(self, requests):
        from repro.sim.rng import SeededRNG
        from repro.workloads.tpcw.datagen import TpcwDatabase, TpcwScale
        from repro.workloads.tpcw.mixes import INTERACTIONS
        from repro.workloads.tpcw.schema import TPCW_DDL
        from repro.workloads.tpcw.transactions import TpcwSession

        engine = Engine()
        engine.create_database_from_ddl("db", TPCW_DDL)
        data = TpcwDatabase(TpcwScale(items=40, emulated_browsers=2), seed=1)
        for table, rows in data.rows.items():
            engine.load_table_rows("db", table, [tuple(r) for r in rows])

        class Conn:
            txn = engine.begin()
            statements = set()

            def execute(self, sql, params=()):
                self.statements.add(sql)
                return engine.execute_sync(self.txn, "db", sql, params)

            def commit(self):
                engine.commit(self.txn)
                self.txn = engine.begin()

        conn = Conn()
        session = TpcwSession(conn, data, SeededRNG(5), customer_id=3,
                              cart_id=2)
        for _ in range(200):
            # As in test_cost_based_property's ``shopping`` fixture: extra
            # cart visits reach the rarest statement.
            for name in ["shopping_cart"] * 4 + INTERACTIONS:
                interaction = getattr(session, name)()
                reply = None
                try:
                    while True:
                        reply = interaction.send(reply)
                except StopIteration:
                    pass
            if len(conn.statements) == 30:
                break
        assert len(conn.statements) == 30
        assert engine.locks.stats.acquired > 1000
        assert requests == []

    def test_a_wait_constructs_exactly_one(self, shop, requests):
        from repro.engine.locks import LockMode
        writer = shop.begin()
        shop.execute_sync(writer, "shop",
                          "UPDATE item SET i_cost = 0.0 WHERE i_id = 7")
        reader = shop.begin()
        gen = shop.execute(reader, "shop",
                           "SELECT i_cost FROM item WHERE i_id = 7")
        request = next(gen)
        assert requests == [(reader.txn_id, ("row", "shop", "item", 7),
                             LockMode.S)]
        shop.commit(writer)
        assert request.granted
        with pytest.raises(StopIteration) as done:
            next(gen)
        assert done.value.value.rows == [(0.0,)]
        shop.commit(reader)
        assert len(requests) == 1
        assert shop.locks.stats.waits == 1
