"""Unit tests for catalog objects and heap storage."""

import os
import subprocess
import sys
import tracemalloc

import pytest

import repro
from repro.engine import storage
from repro.engine.config import EngineConfig
from repro.engine.engine import Engine
from repro.engine.schema import Column, DatabaseSchema, IndexDef, TableSchema
from repro.engine.storage import HeapTable, StoredDatabase
from repro.engine.types import SqlType
from repro.errors import ConstraintError, SchemaError


_PRINT_LEAVES = """
from repro.engine.config import EngineConfig
from repro.engine.schema import Column, IndexDef, TableSchema
from repro.engine.storage import HeapTable
from repro.engine.types import SqlType

schema = TableSchema("t", [Column("k", SqlType.INTEGER, nullable=False),
                           Column("s", SqlType.VARCHAR),
                           Column("n", SqlType.INTEGER)],
                     primary_key=["k"])
schema.add_index(IndexDef("by_s", ("s",)))
schema.add_index(IndexDef("by_s_n", ("s", "n")))
table = HeapTable("db", schema, EngineConfig(rows_per_page=4))
for k in range(200):
    table.insert((k, f"title{k}", k % 7))
keys = [("by_s", (f"title{k}",)) for k in range(0, 200, 9)]
keys += [("by_s_n", (f"title{k}", k % 7)) for k in range(0, 200, 11)]
keys += [("by_s", (None,)), ("by_s_n", ("title3", None)),
         ("by_s_n", (None, None)), ("by_s_n", ("title5",)), ("by_s", ())]
print(" ".join(str(table.index_pages(name, key)[-1][-1])
               for name, key in keys))
"""


def _leaves_in_fresh_process(hash_seed: str) -> str:
    """Leaf numbers of a fixed list of string / mixed / NULL-bearing index
    keys, computed by an interpreter started with ``PYTHONHASHSEED``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _PRINT_LEAVES], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def kv_schema():
    return TableSchema("kv", [
        Column("k", SqlType.INTEGER, nullable=False),
        Column("v", SqlType.VARCHAR),
    ], primary_key=["k"])


class TestTableSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", SqlType.INTEGER),
                              Column("a", SqlType.INTEGER)])

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_pk_column_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", SqlType.INTEGER)],
                        primary_key=["nope"])

    def test_pk_creates_index(self):
        schema = kv_schema()
        assert "__pk__" in schema.indexes
        assert schema.indexes["__pk__"].columns == ("k",)

    def test_column_positions(self):
        schema = kv_schema()
        assert schema.column_position("k") == 0
        assert schema.column_position("v") == 1
        with pytest.raises(SchemaError):
            schema.column_position("missing")

    def test_index_prefix_match(self):
        schema = TableSchema("t", [Column("a", SqlType.INTEGER),
                                   Column("b", SqlType.INTEGER),
                                   Column("c", SqlType.INTEGER)])
        schema.add_index(IndexDef("ab", ("a", "b")))

        def prefixed(*columns):
            return [index.name for index in schema.indexes.values()
                    if index.columns[:len(columns)] == columns]
        assert prefixed("a") == ["ab"]
        assert prefixed("a", "b") == ["ab"]
        assert prefixed("b") == []

    def test_duplicate_index_rejected(self):
        schema = kv_schema()
        schema.add_index(IndexDef("iv", ("v",)))
        with pytest.raises(SchemaError):
            schema.add_index(IndexDef("iv", ("v",)))


class TestHeapTable:
    @pytest.fixture
    def table(self):
        return HeapTable("db", kv_schema(), EngineConfig(rows_per_page=4))

    def test_insert_and_get(self, table):
        rid = table.insert((1, "one"))
        assert table.get(rid) == (1, "one")
        assert table.row_count == 1

    def test_pk_uniqueness(self, table):
        table.insert((1, "one"))
        with pytest.raises(ConstraintError):
            table.insert((1, "again"))

    def test_not_null_enforced(self, table):
        with pytest.raises(ConstraintError):
            table.insert((None, "x"))

    def test_wrong_arity_rejected(self, table):
        with pytest.raises(ConstraintError):
            table.insert((1,))

    def test_type_coercion_on_insert(self, table):
        rid = table.insert(("5", 123))
        assert table.get(rid) == (5, "123")

    def test_delete_maintains_indexes(self, table):
        rid = table.insert((1, "one"))
        table.delete(rid)
        assert table.indexes["__pk__"].search((1,)) == []
        table.insert((1, "anew"))  # pk free again

    def test_delete_missing_rid(self, table):
        with pytest.raises(ConstraintError):
            table.delete(99)

    def test_update_changes_index(self, table):
        rid = table.insert((1, "one"))
        table.update(rid, (2, "two"))
        assert table.indexes["__pk__"].search((1,)) == []
        assert table.indexes["__pk__"].search((2,)) == [rid]

    def test_update_pk_collision_rejected(self, table):
        table.insert((1, "one"))
        rid2 = table.insert((2, "two"))
        with pytest.raises(ConstraintError):
            table.update(rid2, (1, "clash"))

    def test_insert_at_restores_rid(self, table):
        rid = table.insert((1, "one"))
        before = table.delete(rid)
        table.insert_at(rid, before)
        assert table.get(rid) == (1, "one")

    def test_insert_at_occupied_rejected(self, table):
        rid = table.insert((1, "one"))
        with pytest.raises(ConstraintError):
            table.insert_at(rid, (2, "x"))

    def test_page_accounting(self, table):
        for k in range(10):
            table.insert((k, "x"))
        # 10 rows at 4 rows/page -> 3 pages
        assert table.page_count == 3
        assert table.heap_page(0)[-1] == 0
        assert table.heap_page(5)[-1] == 1
        assert len(list(table.heap_pages())) == 3

    def test_index_pages_cover_levels(self, table):
        for k in range(50):
            table.insert((k, "x"))
        pages = table.index_pages("__pk__", (25,))
        assert len(pages) >= 1
        assert pages[-1][4] == "leaf"

    def test_integer_keys_keep_their_leaf(self, table):
        """Integer-only keys hash as Python hashes them (no salt there),
        so the integer-keyed workloads' page touches never moved."""
        for k in range(200):
            table.insert((k, "x"))
        leaf_count = 200 // 4
        for key in [(0,), (7,), (199,), (10 ** 12,), (-3,), (3, 4), ()]:
            leaf = table.index_pages("__pk__", key)[-1]
            assert leaf[-2:] == ("leaf", hash(key) % leaf_count)

    def test_leaf_placement_is_independent_of_the_process(self):
        """String (and NULL-bearing) index keys land on the same leaf in
        every process: ``hash(str)`` is salted per process, and
        ``hash(None)`` is an address before Python 3.12."""
        leaves = [_leaves_in_fresh_process(salt) for salt in ("1", "2")]
        assert leaves[0] == leaves[1]
        assert len(set(leaves[0].split())) > 4  # spread, not one leaf

    def test_scan_in_rid_order(self, table):
        rids = [table.insert((k, "x")) for k in (5, 3, 9)]
        scanned = [rid for rid, _ in table.scan()]
        assert scanned == sorted(rids)

    def test_estimated_bytes_scales(self, table):
        assert table.estimated_bytes() == 0
        table.insert((1, "abc"))
        one = table.estimated_bytes()
        table.insert((2, "abc"))
        assert table.estimated_bytes() == 2 * one


class TestStoredDatabase:
    def test_add_and_get_table(self):
        db = StoredDatabase(DatabaseSchema("app"), EngineConfig())
        db.add_table(kv_schema())
        assert db.table("kv").row_count == 0
        with pytest.raises(SchemaError):
            db.table("missing")

    def test_estimated_mb(self):
        db = StoredDatabase(DatabaseSchema("app"), EngineConfig())
        db.add_table(kv_schema())
        for k in range(100):
            db.table("kv").insert((k, "payload" * 4))
        assert db.estimated_mb() > 0


KV_DDL = ["CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"]


def _kv_table(engine, db="db"):
    return engine.create_database_from_ddl(db, KV_DDL).table("kv")


class TestBulkLoadBytes:
    def test_bytes_per_replica_row(self, monkeypatch):
        """Three replicas bulk-loading one row list share the rows, the
        rid ints and (through their one-column primary keys) the key
        values: under ``tracemalloc`` a replica-row costs its dict slot
        and its tree slot, ~77 B (CPython 3.11), against ~142 B while
        every replica held its own rid ints and 1-tuple keys. The empty
        rid pool makes the first replica pay for the pool's ints."""
        monkeypatch.setattr(storage, "_RIDS", [])
        n, replicas = 20_000, 3
        engines = [Engine(EngineConfig()) for _ in range(replicas)]
        tables = [_kv_table(engine) for engine in engines]
        rows = [(k, k) for k in range(1000, 1000 + n)]
        tracemalloc.start()
        try:
            for table in tables:
                table.insert_many(rows)
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(table.row_count == n for table in tables)
        per_row = traced / (n * replicas)
        assert per_row <= 100, f"{per_row:.1f} B per replica-row"

    def test_rid_pool_is_bounded_and_shared(self, monkeypatch):
        """The pool grows only to the largest ``next_rid`` a bulk load
        reaches, so creating and dropping tenants never grows it, and
        every table's equal rids are one object."""
        monkeypatch.setattr(storage, "_RIDS", [])
        engine = Engine(EngineConfig())
        rows = [(k, 0) for k in range(1000, 1050)]
        for cycle in range(200):
            _kv_table(engine, f"t{cycle}").insert_many(rows)
            engine.drop_database(f"t{cycle}")
        assert len(storage._RIDS) == 50
        replicas = [_kv_table(Engine(EngineConfig())) for _ in range(2)]
        first, second = (table.insert_many(rows) for table in replicas)
        assert first == list(range(50))
        assert all(a is b for a, b in zip(first, second))
        assert all(a is b for a, b in zip(*(
            sorted(table._rows) for table in replicas)))
