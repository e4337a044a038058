"""Heap storage: row store plus index maintenance.

Each table is a heap of rows keyed by monotonically increasing row ids.
Row ids map to heap *pages* (``rows_per_page`` rows each) so the executor
can charge buffer-pool accesses; B+Tree indexes likewise expose the page
ids a traversal would touch.

``insert`` stores one row (an INSERT statement, undo); ``insert_many``
is the one bulk path — a tenant's load, a copy landing — and equals a
loop of ``insert``: it checks and coerces the rows column by column,
indexes them with ``BPlusTree.extend``, stores a row that coerces to
itself as the tuple it was given, takes its rids from one process-wide
pool of ints, and stops at the row the loop would have rejected, with
the loop's error. A one-column index's tree stores key values, not
1-tuples (``BPlusTree``'s ``width``).
"""

from __future__ import annotations

import zlib
from itertools import compress, count, groupby, repeat
from operator import contains, is_not, itemgetter
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.engine.btree import BPlusTree
from repro.engine.config import EngineConfig
from repro.engine.schema import (Column, DatabaseSchema, IndexDef,
                                 TableSchema)
from repro.engine.stats import TableStats
from repro.engine.types import SqlType, coerce
from repro.errors import ConstraintError, SchemaError

Row = Tuple[Any, ...]
PageId = Tuple[Any, ...]


def _placement_hash(key: Tuple[Any, ...]) -> int:
    """``hash(key)`` as a function of the key's *value* only.

    Numbers hash the same in every process; ``str`` hashes are salted per
    process and ``hash(None)`` is an address before Python 3.12, so those
    components are replaced (crc32 of the bytes, as ``SeededRNG.fork``
    does; 0) before the tuple is hashed. Integer-only keys keep exactly
    the hash they always had.
    """
    for value in key:
        if value is None or isinstance(value, str):
            return hash(tuple(
                0 if v is None
                else zlib.crc32(v.encode()) if isinstance(v, str) else v
                for v in key))
    return hash(key)


NoneType = type(None)
#: The type ``coerce`` returns for each column type: a value already of
#: it is stored unchanged.
_NATIVE = {SqlType.INTEGER: int, SqlType.FLOAT: float,
           SqlType.VARCHAR: str, SqlType.DATE: str}
#: The rids ``insert_many`` hands out, one int object per value for every
#: table and replica: its length is the largest ``next_rid`` a bulk load
#: has reached.
_RIDS: List[int] = []


def _coerce_column(table: str, column: Column, values: Iterable[Any]
                   ) -> Tuple[List[Any], Optional[Tuple[int, ConstraintError]]]:
    """``coerce`` each of a column's values, as ``insert`` would.

    Returns the stored values up to the first one ``insert`` rejects,
    and that value's position with its error (None: none rejected).
    """
    sql_type, native = column.sql_type, _NATIVE[column.sql_type]
    out: List[Any] = []
    for i, value in enumerate(values):
        if type(value) is not native:
            try:
                value = coerce(value, sql_type)
            except ValueError as exc:
                error = ConstraintError(str(exc))
                error.__cause__ = exc
                return out, (i, error)
            if value is None and not column.nullable:
                return out, (i, ConstraintError(
                    f"{table}.{column.name} is NOT NULL"))
        out.append(value)
    return out, None


class HeapTable:
    """One table's rows and indexes on one engine instance."""

    def __init__(self, db_name: str, schema: TableSchema, config: EngineConfig):
        self.db_name = db_name
        self.schema = schema
        self.config = config
        self._rows: Dict[int, Row] = {}
        self._next_rid = 0
        # Page-id prefixes are invariant per table; precomputing them keeps
        # the per-row heap_page/index_pages calls to one tuple concat.
        self._rows_per_page = config.rows_per_page
        self._heap_prefix = (db_name, schema.name, "heap")
        self._ix_prefix = (db_name, schema.name, "ix")
        # index name -> (height, leaf_count, internal pages, leaf prefix);
        # rebuilt whenever the tree's height or leaf count moves.
        self._index_page_cache: Dict[str, Tuple] = {}
        self.indexes: Dict[str, BPlusTree] = {}
        for index in schema.indexes.values():
            self.indexes[index.name] = BPlusTree(config.btree_order,
                                                 len(index.columns))

    # -- basic accessors --------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def row_count(self) -> int:
        return len(self._rows)

    @property
    def page_count(self) -> int:
        """Heap pages the table occupies (at least 1)."""
        return max(1, (self._next_rid + self.config.rows_per_page - 1)
                   // self.config.rows_per_page)

    @property
    def next_rid(self) -> int:
        """The rid the next inserted row gets."""
        return self._next_rid

    def get(self, rid: int) -> Optional[Row]:
        return self._rows.get(rid)

    def get_many(self, rids: Sequence[int]) -> List[Optional[Row]]:
        """``get`` of each rid, in order (None where there is no row)."""
        return list(map(self._rows.get, rids))

    def scan(self) -> Iterator[Tuple[int, Row]]:
        """All (rid, row) pairs in rid order."""
        for rid in sorted(self._rows):
            yield rid, self._rows[rid]

    def scan_rows(self) -> List[Row]:
        """All rows in rid order (batch scans; no rids materialized)."""
        rows = self._rows
        return [rows[rid] for rid in sorted(rows)]

    def index_key(self, index: IndexDef, row: Row) -> Tuple[Any, ...]:
        return tuple(row[p] for p in self.schema.index_positions(index))

    def pk_key(self, row: Row) -> Tuple[Any, ...]:
        return tuple(row[p] for p in self.schema.pk_positions())

    # -- page accounting ---------------------------------------------------

    def heap_page(self, rid: int) -> PageId:
        return self._heap_prefix + (rid // self._rows_per_page,)

    def heap_page_runs(self, rids: Sequence[int]) -> List[Tuple[PageId, int]]:
        """``(page, count)`` for each run of consecutive ``rids`` that sit
        on one heap page, in order: the pages ``heap_page`` gives for the
        rids one by one, with repeats folded into a count."""
        prefix = self._heap_prefix
        return [(prefix + (page_no,), len(list(run)))
                for page_no, run in groupby(
                    map(self._rows_per_page.__rfloordiv__, rids))]

    def heap_pages(self) -> Iterator[PageId]:
        """All heap pages, in order (a full table scan touches these)."""
        prefix = self._heap_prefix
        for page_no in range(self.page_count):
            yield prefix + (page_no,)

    def index_pages(self, index_name: str, key: Tuple[Any, ...]) -> List[PageId]:
        """Pages a point traversal of ``index_name`` touches for ``key``.

        Upper levels are modeled as one hot page per level (realistic —
        the root and internal nodes of a small index stay resident); the
        leaf level is spread over ``leaf_count`` pages by a hash of the
        key's value (the same leaf in every process: simulated buffer-pool
        behaviour must be reproducible from the seed alone).
        """
        tree = self.indexes[index_name]
        leaf_count = max(1, len(tree) // self._rows_per_page)
        cached = self._index_page_cache.get(index_name)
        if (cached is None or cached[0] != tree.height
                or cached[1] != leaf_count):
            prefix = self._ix_prefix
            internal = [prefix + (index_name, "i", level)
                        for level in range(max(0, tree.height - 1))]
            cached = (tree.height, leaf_count, internal,
                      prefix + (index_name, "leaf"))
            self._index_page_cache[index_name] = cached
        leaf = _placement_hash(key) % leaf_count
        return cached[2] + [cached[3] + (leaf,)]

    # -- mutation -----------------------------------------------------------

    def _coerce_row(self, values: Sequence[Any]) -> Row:
        if len(values) != len(self.schema.columns):
            raise ConstraintError(
                f"{self.schema.name}: expected {len(self.schema.columns)} "
                f"values, got {len(values)}"
            )
        out = []
        for value, column in zip(values, self.schema.columns):
            try:
                stored = coerce(value, column.sql_type)
            except ValueError as exc:
                raise ConstraintError(str(exc)) from exc
            if stored is None and not column.nullable:
                raise ConstraintError(
                    f"{self.schema.name}.{column.name} is NOT NULL"
                )
            out.append(stored)
        return tuple(out)

    def insert(self, values: Sequence[Any]) -> int:
        """Insert a full row; returns its rid. Enforces PK uniqueness."""
        row = self._coerce_row(values)
        if self.schema.primary_key:
            key = self.pk_key(row)
            if any(v is None for v in key):
                raise ConstraintError(
                    f"{self.schema.name}: NULL in primary key {key}"
                )
            if self.indexes["__pk__"].contains(key):
                raise ConstraintError(
                    f"{self.schema.name}: duplicate primary key {key}"
                )
        rid = self._next_rid
        self._next_rid += 1
        self._rows[rid] = row
        for name, index in self.schema.indexes.items():
            self.indexes[name].insert(self.index_key(index, row), rid)
        return rid

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> List[int]:
        """``[self.insert(r) for r in rows]``, one pass per column and
        per index.

        Values are coerced column by column: one of the column's native
        type passes through, any other goes through ``coerce``. The
        first row ``insert`` would reject is found before anything is
        stored — wrong arity, then each column's coercion or NOT NULL,
        then a NULL in the primary key, then a primary key already in
        the table or earlier in the batch. The rows before it are stored
        and indexed (``BPlusTree.extend``, one index at a time) and then
        that row's ``ConstraintError`` is raised. A row whose values all
        coerce to themselves is stored as the tuple passed in, so
        replicas loaded from one list share their rows; the rids are the
        process-wide ``_RIDS``' ints, so they share those too.
        """
        schema = self.schema
        width = len(schema.columns)
        error = None
        if set(map(len, rows)) - {width}:
            at = next(i for i, row in enumerate(rows) if len(row) != width)
            error = ConstraintError(f"{schema.name}: expected {width} "
                                    f"values, got {len(rows[at])}")
            rows = rows[:at]
        stored = list(rows)
        if set(map(type, stored)) - {tuple}:
            stored = list(map(tuple, stored))
        coerced: Dict[int, List[Any]] = {}
        for pos, column in enumerate(schema.columns):
            native = _NATIVE[column.sql_type]
            kinds = set(map(type, map(itemgetter(pos), stored)))
            if kinds <= ({native, NoneType} if column.nullable else {native}):
                continue
            coerced[pos], bad = _coerce_column(
                schema.name, column, map(itemgetter(pos), stored))
            if bad is not None:
                at, error = bad
                del stored[at:]
        if coerced:
            moved = set()
            for pos, values in coerced.items():
                moved.update(compress(count(), map(
                    is_not, values, map(itemgetter(pos), stored))))
            for i in moved:
                row = list(stored[i])
                for pos, values in coerced.items():
                    row[pos] = values[i]
                stored[i] = tuple(row)
            del coerced, moved
        keys = None
        if schema.primary_key:
            keys = list(zip(*[map(itemgetter(p), stored)
                              for p in schema.pk_positions()]))
            null = next(compress(count(), map(contains, keys, repeat(None))),
                        None)
            if null is not None:
                error = ConstraintError(
                    f"{schema.name}: NULL in primary key {keys[null]}")
                del keys[null:], stored[null:]
            dup = self._first_duplicate(keys)
            if dup is not None:
                error = ConstraintError(
                    f"{schema.name}: duplicate primary key {keys[dup]}")
                del keys[dup:], stored[dup:]
        start, end = self._next_rid, self._next_rid + len(stored)
        if len(_RIDS) < end:
            _RIDS.extend(range(len(_RIDS), end))
        rids = _RIDS[start:end]
        self._rows.update(zip(rids, stored))
        self._next_rid = end
        for name, index in schema.indexes.items():
            if name == "__pk__":
                index_keys, keys = keys, None
            else:
                index_keys = zip(*[map(itemgetter(p), stored)
                                   for p in schema.index_positions(index)])
            self.indexes[name].extend(zip(index_keys, rids))
        if error is not None:
            raise error
        return rids

    def _first_duplicate(self, keys: List[Tuple[Any, ...]]) -> Optional[int]:
        """Position of the first key already in the primary-key index or
        earlier in ``keys`` (None: no such key)."""
        tree = self.indexes["__pk__"]
        if not len(tree) and len(set(keys)) == len(keys):
            return None
        seen = set()
        for i, key in enumerate(keys):
            if key in seen or tree.contains(key):
                return i
            seen.add(key)
        return None

    def insert_at(self, rid: int, values: Sequence[Any]) -> None:
        """Re-insert a row at a specific rid (transaction undo path)."""
        if rid in self._rows:
            raise ConstraintError(f"rid {rid} already occupied")
        row = self._coerce_row(values)
        self._rows[rid] = row
        self._next_rid = max(self._next_rid, rid + 1)
        for name, index in self.schema.indexes.items():
            self.indexes[name].insert(self.index_key(index, row), rid)

    def delete(self, rid: int) -> Row:
        """Remove a row; returns the before-image."""
        if rid not in self._rows:
            raise ConstraintError(f"no row {rid} in {self.schema.name}")
        row = self._rows.pop(rid)
        for name, index in self.schema.indexes.items():
            self.indexes[name].delete(self.index_key(index, row), rid)
        return row

    def update(self, rid: int, values: Sequence[Any]) -> Tuple[Row, Row]:
        """Replace a row in place; returns (before, after) images."""
        if rid not in self._rows:
            raise ConstraintError(f"no row {rid} in {self.schema.name}")
        before = self._rows[rid]
        after = self._coerce_row(values)
        if self.schema.primary_key:
            old_key = self.pk_key(before)
            new_key = self.pk_key(after)
            if new_key != old_key and self.indexes["__pk__"].contains(new_key):
                raise ConstraintError(
                    f"{self.schema.name}: duplicate primary key {new_key}"
                )
        self._rows[rid] = after
        for name, index in self.schema.indexes.items():
            old_ik = self.index_key(index, before)
            new_ik = self.index_key(index, after)
            if old_ik != new_ik:
                self.indexes[name].delete(old_ik, rid)
                self.indexes[name].insert(new_ik, rid)
        return before, after

    def update_columns(self, rid: int, items: Sequence[Tuple[int, Any]],
                       touched_indexes: Sequence[str],
                       pk_affected: bool) -> Tuple[Row, Row]:
        """Update only the given (position, value) pairs of one row.

        Equivalent to :meth:`update` with a full replacement row, but the
        caller precomputes (once per plan, not once per row) which
        indexes the assignment set can invalidate and whether the primary
        key is touched, so unassigned columns are never re-coerced and
        untouched indexes are never probed. ``items`` must be sorted by
        position so constraint errors surface in the same column order
        as the full-row path.
        """
        if rid not in self._rows:
            raise ConstraintError(f"no row {rid} in {self.schema.name}")
        before = self._rows[rid]
        after_list = list(before)
        columns = self.schema.columns
        for pos, value in items:
            column = columns[pos]
            try:
                stored = coerce(value, column.sql_type)
            except ValueError as exc:
                raise ConstraintError(str(exc)) from exc
            if stored is None and not column.nullable:
                raise ConstraintError(
                    f"{self.schema.name}.{column.name} is NOT NULL"
                )
            after_list[pos] = stored
        after = tuple(after_list)
        if pk_affected and self.schema.primary_key:
            old_key = self.pk_key(before)
            new_key = self.pk_key(after)
            if new_key != old_key and self.indexes["__pk__"].contains(new_key):
                raise ConstraintError(
                    f"{self.schema.name}: duplicate primary key {new_key}"
                )
        self._rows[rid] = after
        schema_indexes = self.schema.indexes
        for name in touched_indexes:
            index = schema_indexes[name]
            old_ik = self.index_key(index, before)
            new_ik = self.index_key(index, after)
            if old_ik != new_ik:
                self.indexes[name].delete(old_ik, rid)
                self.indexes[name].insert(new_ik, rid)
        return before, after

    def estimated_bytes(self) -> int:
        """Rough on-disk footprint used for SLA sizing."""
        if not self._rows:
            return 0
        sample_rid = next(iter(self._rows))
        row = self._rows[sample_rid]
        row_bytes = sum(
            8 if isinstance(v, (int, float)) else len(str(v)) + 4
            for v in row
            if v is not None
        ) + 8
        return row_bytes * len(self._rows)


class StoredDatabase:
    """One tenant database's physical storage on one engine."""

    def __init__(self, schema: DatabaseSchema, config: EngineConfig):
        self.schema = schema
        self.config = config
        self.tables: Dict[str, HeapTable] = {
            name: HeapTable(schema.name, tschema, config)
            for name, tschema in schema.tables.items()
        }
        # Catalogue statistics live with the storage so they travel with
        # the database on attach/failover. Maintained incrementally by
        # Engine.commit / bulk load.
        self.stats: Dict[str, TableStats] = {
            name: TableStats(len(tschema.columns))
            for name, tschema in schema.tables.items()
        }

    @property
    def name(self) -> str:
        return self.schema.name

    def table(self, name: str) -> HeapTable:
        if name not in self.tables:
            raise SchemaError(f"no table {name!r} in database {self.name!r}")
        return self.tables[name]

    def add_table(self, tschema: TableSchema) -> None:
        self.schema.add_table(tschema)
        self.tables[tschema.name] = HeapTable(self.name, tschema, self.config)
        self.stats[tschema.name] = TableStats(len(tschema.columns))

    def estimated_bytes(self) -> int:
        return sum(t.estimated_bytes() for t in self.tables.values())

    def estimated_mb(self) -> float:
        return self.estimated_bytes() / (1024.0 * 1024.0)
