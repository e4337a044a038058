"""Differential: a bulk load against a loop of single-row inserts.

``Engine.load_table_rows`` is ``HeapTable.insert_many`` plus one
column-wise ``TableStats.add_rows``. The oracle is the loop it
replaced: ``HeapTable.insert`` of each row, then ``TableStats.add_row``
of the stored row, stopping at the first ``ConstraintError``. Both run
on engines holding the same earlier rows; afterwards the two must agree
on the raised error (type, message, cause), the heap (rows at the same
rids, in order, and the next rid), every index node for node, and the
statistics (``snapshot()`` and each column's counts in first-seen order)
— also when the load stopped part-way.

Batches mix NULL and duplicate primary keys (within the batch and
against rows already there), uncoercible values, wrong arity, bools,
floats into INTEGER, and ints into FLOAT or VARCHAR.

``test_mutants_are_caught`` breaks the duplicate check and the
statistics add one way each, swapped in through ``repro.engine.storage``
(the module ``StoredDatabase`` builds tables and statistics from).
"""

from unittest import mock

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.engine import Engine, EngineConfig
from repro.engine import storage
from repro.engine.stats import ColumnStats, TableStats
from repro.errors import ConstraintError

from tests.oracles.stats_rebuild import rebuild
from tests.property.test_btree_extend_property import shape

TABLES = {
    # A nullable one-column key (so a NULL key reaches the key check)
    # and a composite index.
    "single": ["CREATE TABLE t (k INTEGER, s VARCHAR(8) NOT NULL, f FLOAT, "
               "d DATE, n INTEGER NOT NULL, PRIMARY KEY (k))",
               "CREATE INDEX t_s ON t (s)",
               "CREATE INDEX t_ns ON t (n, s)"],
    "composite": ["CREATE TABLE t (k INTEGER NOT NULL, s VARCHAR(8), "
                  "f FLOAT, d DATE, n INTEGER NOT NULL, "
                  "PRIMARY KEY (s, k))",
                  "CREATE INDEX t_n ON t (n)"],
    "keyless": ["CREATE TABLE t (k INTEGER, s VARCHAR(8), f FLOAT, "
                "d DATE, n INTEGER)"],
}

# Every kind of value a caller may hand a column: native, coercible to
# it, or not; bools; NULL.
values = st.one_of(
    st.none(),
    st.integers(min_value=-3, max_value=12),
    st.integers(min_value=-3, max_value=12).map(float),
    st.sampled_from([0.5, 2.25, True, False, "7", "x", "2024-01-02", "1.5",
                     b"9", ()]),
)
# Mostly well-formed rows, so loads run long before they stop.
good = st.tuples(st.integers(min_value=0, max_value=40),
                 st.sampled_from(["a", "b", "c"]),
                 st.one_of(st.none(), st.floats(-5, 5, allow_nan=False)),
                 st.sampled_from([None, "2024-01-01", "2024-02-02"]),
                 st.integers(min_value=0, max_value=4))
# A well-formed row with one value swapped: a NULL in a NOT NULL or key
# column, say, where the rest of its column passes through unchanged.
swapped = st.tuples(good, st.integers(min_value=0, max_value=4),
                    values).map(lambda t: t[0][:t[1]] + (t[2],)
                                + t[0][t[1] + 1:])
rows = st.one_of(good.map(list), swapped,
                 st.lists(values, min_size=5, max_size=5).map(tuple),
                 st.lists(values, min_size=4, max_size=6).map(tuple))
batches = st.lists(st.one_of(good, good, good, rows), max_size=60)


def engine_with(table, before, order):
    engine = Engine(config=EngineConfig(btree_order=order))
    engine.create_database_from_ddl("db", TABLES[table])
    load_row_by_row(engine, before)
    return engine


def load_row_by_row(engine, rows):
    """The oracle: the load as it ran before ``insert_many``."""
    database = engine.database("db")
    table, stats = database.table("t"), database.stats["t"]
    for row in rows:
        try:
            rid = table.insert(row)
        except ConstraintError as exc:
            return exc
        stats.add_row(table.get(rid))
    return None


def load_in_bulk(engine, rows):
    try:
        engine.load_table_rows("db", "t", rows)
    except ConstraintError as exc:
        return exc
    return None


def error_of(exc):
    if exc is None:
        return None
    cause = exc.__cause__
    return (type(exc), str(exc), type(cause),
            None if cause is None else str(cause))


def state_of(engine):
    database = engine.database("db")
    table, stats = database.table("t"), database.stats["t"]
    return (list(table._rows.items()), table.next_rid,
            {name: (shape(tree._root, tree._bare), tree.height, len(tree))
             for name, tree in table.indexes.items()},
            stats.snapshot(),
            [list(column.counts.items()) for column in stats.columns])


def run(case, load):
    table, order, before, batch = case
    engine = engine_with(table, before, order)
    return error_of(load(engine, batch)), state_of(engine)


def diverges(case):
    return run(case, load_in_bulk) != run(case, load_row_by_row)


@st.composite
def cases(draw, tables=tuple(TABLES)):
    return (draw(st.sampled_from(tables)),
            draw(st.integers(min_value=4, max_value=32)),
            draw(st.lists(good, max_size=30)),
            draw(batches))


@settings(max_examples=300, deadline=None)
@given(cases())
def test_a_bulk_load_equals_the_row_loop(case):
    assert not diverges(case)


def test_the_rejected_row_is_the_loops():
    """Three faults in one batch: the loop stops at the first, and so
    does the bulk load, with the rows before it stored."""
    batch = [(1, "a", 1, None, 0), (2, "b", 2.0, None, 1),
             (3, "c", None, None, True), (2, "x", None, None, 0),
             (None, "d", None, None, 0), (4, "e", "y", None, 0)]
    case = ("single", 4, [(0, "z", None, None, 0)], batch)
    assert not diverges(case)
    error, state = run(case, load_in_bulk)
    assert error[:2] == (ConstraintError, "t: duplicate primary key (2,)")
    assert [rid for rid, _ in state[0]] == [0, 1, 2, 3]


def test_unchanged_rows_are_the_callers_tuples():
    engine = engine_with("single", [], 8)
    batch = [(1, "a", 1.5, None, 0), (2, "b", 2, None, 1),
             (3, "c", None, "2024-01-01", 2)]
    engine.load_table_rows("db", "t", batch)
    stored = engine.database("db").table("t").scan_rows()
    assert stored == [(1, "a", 1.5, None, 0), (2, "b", 2.0, None, 1),
                      (3, "c", None, "2024-01-01", 2)]
    assert stored[0] is batch[0] and stored[2] is batch[2]
    assert stored[1] is not batch[1]


class SkipsRowsAlreadyThere(storage.HeapTable):
    """Checks a batch's keys against each other only."""

    def _first_duplicate(self, keys):
        seen = set()
        for i, key in enumerate(keys):
            if key in seen:
                return i
            seen.add(key)
        return None


class NullAsValue(ColumnStats):
    """Counts NULL as one more value of the column."""

    def add_many(self, values):
        values = list(values)
        super().add_many(v for v in values if v is not None)
        nulls = values.count(None)
        if nulls:
            self.non_null += nulls
            self.counts[None] = self.counts.get(None, 0) + nulls


class NullAsValueStats(TableStats):
    def __init__(self, n_columns):
        super().__init__(n_columns)
        self.columns = [NullAsValue() for _ in range(n_columns)]


@pytest.mark.parametrize("name, broken", [
    ("HeapTable", SkipsRowsAlreadyThere), ("TableStats", NullAsValueStats)])
def test_mutants_are_caught(name, broken):
    with mock.patch.object(storage, name, broken):
        case = find(cases(), diverges,
                    settings=settings(max_examples=2000, deadline=None,
                                      derandomize=True, database=None,
                                      phases=[Phase.generate]))
    assert not diverges(case)


def test_the_column_add_equals_add_row():
    rows = [(1, None, "a"), (3, 2.5, "a"), (1, None, "b"), (0, 1.0, None)]
    stats = TableStats(3)
    stats.add_row((5, 9.0, "c"))
    oracle = rebuild(3, [(5, 9.0, "c")] + rows)
    stats.add_rows(rows)
    assert stats.snapshot() == oracle.snapshot()
    assert ([list(c.counts.items()) for c in stats.columns]
            == [list(c.counts.items()) for c in oracle.columns])
