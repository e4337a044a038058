"""Unit tests for the EXPLAIN plan printer."""

import pytest

from repro.engine import Engine
from repro.engine.explain import explain


@pytest.fixture
def eng():
    engine = Engine()
    engine.create_database("db")
    txn = engine.begin()
    engine.execute_sync(txn, "db",
                        "CREATE TABLE item (i_id INT PRIMARY KEY, "
                        "i_title VARCHAR(20), i_a_id INT)")
    engine.execute_sync(txn, "db",
                        "CREATE TABLE author (a_id INT PRIMARY KEY, "
                        "a_name VARCHAR(20))")
    engine.execute_sync(txn, "db", "CREATE INDEX item_a ON item (i_a_id)")
    engine.commit(txn)
    return engine


class TestExplain:
    def test_point_lookup_shows_pk_index(self, eng):
        text = explain(eng.plan("db", "SELECT i_title FROM item "
                                      "WHERE i_id = 1"))
        assert "IndexEqScan item.__pk__" in text
        assert "Project" in text

    def test_seq_scan_with_filter(self, eng):
        text = explain(eng.plan("db", "SELECT i_id FROM item "
                                      "WHERE i_title = 'x'"))
        assert "SeqScan item" in text
        assert "Filter" in text

    def test_join_plan_rendered(self, eng):
        text = explain(eng.plan(
            "db", "SELECT a_name FROM item, author "
                  "WHERE i_a_id = a_id AND i_id = 2"))
        assert "IndexLookupJoin" in text
        lines = text.splitlines()
        assert lines[0].startswith("-> ")
        assert any(line.startswith("  -> ") for line in lines)

    def test_aggregate_and_sort(self, eng):
        text = explain(eng.plan(
            "db", "SELECT i_a_id, COUNT(*) c FROM item GROUP BY i_a_id "
                  "ORDER BY c DESC LIMIT 5"))
        assert "Aggregate group by" in text
        assert "Sort by" in text
        assert "Limit 5" in text

    def test_update_plan(self, eng):
        text = explain(eng.plan("db", "UPDATE item SET i_title = 'x' "
                                      "WHERE i_id = 3"))
        assert "Update item" in text
        assert "row X locks" in text

    def test_delete_plan(self, eng):
        text = explain(eng.plan("db", "DELETE FROM item WHERE i_a_id = 1"))
        assert "Delete from item" in text

    def test_insert_plan(self, eng):
        text = explain(eng.plan("db",
                                "INSERT INTO author VALUES (1, 'a')"))
        assert "Insert into author (1 rows)" in text

    def test_range_scan_bounds_shown(self, eng):
        text = explain(eng.plan("db", "SELECT i_id FROM item "
                                      "WHERE i_id > 5 AND i_id <= 10"))
        assert "IndexRangeScan" in text
        assert "(" in text and "]" in text


class TestExplainStatement:
    def test_renders_the_engines_plan(self, eng):
        sql = "SELECT i_title FROM item WHERE i_id = 1"
        text = explain(eng.plan("db", sql))
        assert "IndexEqScan item.__pk__" in text
