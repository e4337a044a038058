"""Property test: the WAL holds the committed-prefix state.

No restart reads the log in ``src/`` (a crashed machine rejoins blank,
DESIGN §4z); what the log must still guarantee is checked against a
small redo model written here (``replay``). For any random interleaving
of committed and aborted transactions, redoing the durable log gives
exactly the committed transactions' effects. With ``Engine.checkpoint``
run at random points — while a transaction under a global id straddles
them — replaying the retained suffix over the state the dropped prefix
replays to must equal replaying the whole log.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.engine.wal import RecordType

ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(min_value=0, max_value=30),   # key
        st.integers(min_value=-100, max_value=100),  # value
        st.booleans(),                            # commit?
    ),
    max_size=25,
)


#: What happens after a transaction: nothing, a checkpoint, or a
#: straddler (a global-id transaction inserting one row of its own)
#: beginning / committing / aborting. A finished straddler stays a
#: tombstone — and holds the log — until ``close`` drops it, as
#: ``Machine.close_below`` would.
actions = st.lists(
    st.sampled_from(["", "checkpoint", "checkpoint", "begin", "commit",
                     "abort", "close"]),
    min_size=25, max_size=25)


def build_and_crash(txn_specs, after=(), logged=None, cuts=None):
    """Run ``txn_specs`` (and the ``after`` action of each); ``logged``
    collects every record ever logged by LSN, ``cuts`` the log's start
    LSN after each checkpoint that dropped something."""
    engine = Engine()
    engine.create_database("db")
    setup = engine.begin()
    engine.execute_sync(setup, "db",
                        "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
    engine.execute_sync(setup, "db", "CREATE INDEX t_v ON t (v)")
    engine.commit(setup)

    model = {}
    straddlers = []
    for step, (kind, key, value, commit) in enumerate(txn_specs):
        action = after[step] if after else ""
        if action == "checkpoint":
            logged.update((r.lsn, r) for r in engine.wal.all_records())
            if engine.checkpoint():
                cuts.append(engine.wal.start_lsn)
        elif action == "begin":
            straddler = engine.begin(500 + step)
            engine.execute_sync(straddler, "db", "INSERT INTO t VALUES (?, ?)",
                                (500 + step, step))
            straddlers.append(straddler)
        elif action in ("commit", "abort") and straddlers \
                and not straddlers[-1].finished:
            if action == "commit":
                engine.commit(straddlers[-1])
                model[straddlers[-1].txn_id] = straddlers[-1].txn_id - 500
            else:
                engine.abort(straddlers[-1])
        elif action == "close":
            for straddler in straddlers:
                if straddler.finished:
                    engine.transactions.pop(straddler.txn_id, None)
        txn = engine.begin()
        shadow = dict(model)
        try:
            if kind == "insert":
                if key in shadow:
                    engine.abort(txn)
                    continue
                engine.execute_sync(txn, "db",
                                    "INSERT INTO t VALUES (?, ?)",
                                    (key, value))
                shadow[key] = value
            elif kind == "update":
                engine.execute_sync(txn, "db",
                                    "UPDATE t SET v = ? WHERE k = ?",
                                    (value, key))
                if key in shadow:
                    shadow[key] = value
            else:
                engine.execute_sync(txn, "db",
                                    "DELETE FROM t WHERE k = ?", (key,))
                shadow.pop(key, None)
        except Exception:
            engine.abort(txn)
            continue
        if commit:
            engine.commit(txn)
            model = shadow
        else:
            engine.abort(txn)
    if logged is not None:
        logged.update((r.lsn, r) for r in engine.wal.all_records())
    return engine, model


def replay(rows, records):
    """The redo rule on a {rid: row} map: redo, in log order, the
    changes of the transactions ``records`` shows committed."""
    rows = dict(rows)
    committed = {record.txn_id for record in records
                 if record.kind is RecordType.COMMIT}
    for record in records:
        if record.txn_id in committed:
            if record.kind in (RecordType.INSERT, RecordType.UPDATE):
                rows[record.rid] = record.after
            elif record.kind is RecordType.DELETE:
                del rows[record.rid]
    return rows


@settings(max_examples=60, deadline=None)
@given(ops)
def test_recovered_state_is_committed_prefix(txn_specs):
    engine, model = build_and_crash(txn_specs)
    rows = replay({}, engine.wal.durable_records())
    assert sorted(rows.values()) == sorted(model.items())


@settings(max_examples=120, deadline=None)
@given(ops, actions)
def test_checkpoint_at_a_random_point_loses_nothing(txn_specs, after):
    logged, cuts = {}, []
    engine, model = build_and_crash(txn_specs, after, logged, cuts)
    full = [logged[lsn] for lsn in sorted(logged)]
    wal = engine.wal
    assert wal.flushed_lsn >= wal.start_lsn - 1
    assert [r.lsn for r in wal.all_records()] == list(
        range(wal.start_lsn, wal.last_lsn + 1))
    # Every transaction still in the table has its whole history in the
    # retained log.
    assert all(txn.first_lsn >= wal.start_lsn
               for txn in engine.transactions.values())
    whole = replay({}, full)
    assert sorted(whole.values()) == sorted(model.items())
    for cut in cuts:
        prefix = [r for r in full if r.lsn < cut]
        suffix = [r for r in full if r.lsn >= cut]
        # No transaction has records on both sides of a cut, and the
        # dropped side holds finished transactions only.
        assert not ({r.txn_id for r in prefix} & {r.txn_id for r in suffix})
        assert {r.txn_id for r in prefix} == {
            r.txn_id for r in prefix
            if r.kind in (RecordType.COMMIT, RecordType.ABORT)}
        assert replay(replay({}, prefix), suffix) == whole
