"""Statistics-invariant property test.

The catalogue statistics are maintained incrementally — commit replays
the transaction's undo log as deltas, aborts touch nothing. After any
randomized soak of inserts, updates, deletes, commits, and aborts, the
incrementally-maintained :class:`TableStats` must equal a from-scratch
recount of the committed heap (``tests/oracles/stats_rebuild.py``), including the
lazily-refreshed min/max bounds and exact per-value counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, EngineConfig
from repro.errors import EngineError
from tests.oracles.stats_rebuild import rebuild

keys = st.integers(min_value=0, max_value=25)
vals = st.one_of(st.none(), st.integers(min_value=-5, max_value=5))

operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "update_all"]),
        keys, vals,
        st.booleans(),  # commit (True) or abort (False)
    ),
    min_size=1, max_size=40,
)


def _snapshot_oracle(engine):
    table = engine.database("db").table("t")
    rebuilt = rebuild(len(table.schema.columns),
                      (row for _, row in table.scan()))
    return rebuilt.snapshot()


@settings(max_examples=60, deadline=None)
@given(operations)
def test_incremental_stats_match_recount(ops):
    engine = Engine(config=EngineConfig())
    engine.create_database("db")
    txn = engine.begin()
    engine.execute_sync(
        txn, "db",
        "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER, "
        "s VARCHAR(10))")
    # v stays unindexed: it takes NULLs, which the secondary-index
    # B+Tree does not key. The index goes on the never-null s column.
    engine.execute_sync(txn, "db", "CREATE INDEX t_s ON t (s)")
    engine.commit(txn)

    for kind, key, value, commit in ops:
        txn = engine.begin()
        try:
            if kind == "insert":
                engine.execute_sync(txn, "db",
                                    "INSERT INTO t VALUES (?, ?, ?)",
                                    (key, value, f"s{key % 3}"))
            elif kind == "update":
                engine.execute_sync(txn, "db",
                                    "UPDATE t SET v = ? WHERE k = ?",
                                    (value, key))
            elif kind == "update_all":
                engine.execute_sync(txn, "db",
                                    "UPDATE t SET s = ? WHERE k >= ?",
                                    (f"u{key % 4}", key))
            else:
                engine.execute_sync(txn, "db", "DELETE FROM t WHERE k = ?",
                                    (key,))
        except EngineError:
            engine.abort(txn)
            continue
        if commit:
            engine.commit(txn)
        else:
            engine.abort(txn)

    live = engine.database("db").stats["t"].snapshot()
    assert live == _snapshot_oracle(engine)


@settings(max_examples=25, deadline=None)
@given(operations)
def test_stats_match_recount_inside_multistatement_txns(ops):
    """Several statements per transaction; the whole batch of deltas
    lands at commit or none of it does."""
    engine = Engine(config=EngineConfig())
    engine.create_database("db")
    txn = engine.begin()
    engine.execute_sync(
        txn, "db",
        "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER, "
        "s VARCHAR(10))")
    engine.commit(txn)

    for batch_start in range(0, len(ops), 3):
        batch = ops[batch_start:batch_start + 3]
        txn = engine.begin()
        failed = False
        for kind, key, value, _ in batch:
            try:
                if kind == "insert":
                    engine.execute_sync(txn, "db",
                                        "INSERT INTO t VALUES (?, ?, ?)",
                                        (key, value, "x"))
                elif kind in ("update", "update_all"):
                    engine.execute_sync(txn, "db",
                                        "UPDATE t SET v = ? WHERE k = ?",
                                        (value, key))
                else:
                    engine.execute_sync(txn, "db",
                                        "DELETE FROM t WHERE k = ?", (key,))
            except EngineError:
                failed = True
                break
        if failed or not batch[-1][3]:
            engine.abort(txn)
        else:
            engine.commit(txn)

    live = engine.database("db").stats["t"].snapshot()
    assert live == _snapshot_oracle(engine)
