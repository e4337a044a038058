"""The range read's wait path, against the reference interpreter.

A range read grants its row locks a chunk at a time and charges each run
of rows on one heap page as one pool touch (DESIGN §4x); the interpreter
of ``tests/oracles/tree_executor.py`` locks, re-reads and touches one row
at a time. Here other transactions hold X locks on a drawn subset of the
range while a reader scans it. Both engines are stepped the same way:
every ``LockRequest`` the reader yields is logged, and the transaction
blocking it commits — after, in some runs, deleting the row being waited
for or the next free row of the range, or changing the waited row. The
resources waited for, in order, the rows, the ``CostReport`` and the
reader's locks in acquisition order must be identical. ``BATCH_SIZE`` is
drawn small (2 or 3) so that waits land on and next to chunk boundaries.
The ORDER BY queries sort grouped output with NULL aggregates and with
DESC keys that tie.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.engine import compile as compile_module
from repro.engine.locks import LockRequest

from tests.oracles.engines import InterpretedEngine

ROWS = 40
QUERIES = [
    "SELECT k, v FROM t WHERE k >= ?",
    "SELECT k, v, w FROM t WHERE k >= ? ORDER BY v DESC, k",
    "SELECT w, SUM(v) AS t FROM t WHERE k >= ? GROUP BY w "
    "ORDER BY t DESC, w LIMIT 3",
    # Ties on the DESC key keep the groups' first-seen order.
    "SELECT w, COUNT(*) AS n FROM t WHERE k >= ? GROUP BY w "
    "ORDER BY n DESC LIMIT 3",
    "SELECT w, COUNT(v), MIN(v), MAX(k) FROM t WHERE k >= ? GROUP BY w "
    "ORDER BY w DESC",
    "SELECT w, AVG(v) AS a, COUNT(*) FROM t WHERE k >= ? GROUP BY w "
    "ORDER BY a DESC, w",
    "SELECT g, SUM(v) FROM t WHERE g >= ? GROUP BY g ORDER BY g",
    # A multi-column GROUP BY with no aggregates emits its keys alone.
    "SELECT w, g FROM t WHERE k >= ? GROUP BY w, g",
    "SELECT w, g FROM t WHERE k >= ? GROUP BY w, g ORDER BY g DESC, w",
]


@st.composite
def scenarios(draw):
    lo = draw(st.integers(min_value=20, max_value=34))
    return {
        # v is often NULL, so whole groups can aggregate to NULL; w has
        # four values, so sort keys over it tie.
        "v": draw(st.lists(st.one_of(st.none(), st.integers(-3, 3)),
                           min_size=ROWS, max_size=ROWS)),
        "w": draw(st.lists(st.integers(0, 3), min_size=ROWS,
                           max_size=ROWS)),
        "sql": draw(st.sampled_from(QUERIES)),
        "lo": lo,
        "blocked": draw(st.lists(st.integers(lo, ROWS - 1), unique=True,
                                 min_size=1, max_size=6)),
        "at_wait": draw(st.sampled_from(
            ["commit", "update", "delete_waited", "delete_next"])),
        "batch_size": draw(st.sampled_from([2, 3])),
    }


def build(engine_class, scenario):
    engine = engine_class()
    engine.create_database("db")
    txn = engine.begin()
    engine.execute_sync(txn, "db", "CREATE TABLE t (k INTEGER PRIMARY KEY, "
                                   "v INTEGER, w INTEGER, g INTEGER)")
    engine.execute_sync(txn, "db", "CREATE INDEX t_g ON t (g)")
    # Inserted in key order, so a row's rid is its k.
    for k in range(ROWS):
        engine.execute_sync(txn, "db", "INSERT INTO t VALUES (?, ?, ?, ?)",
                            (k, scenario["v"][k], scenario["w"][k], k // 2))
    engine.commit(txn)
    return engine


def run(engine_class, scenario):
    """Scan under the drawn blockers; every observable of the reader."""
    engine = build(engine_class, scenario)
    blockers = {}
    for k in scenario["blocked"]:
        blocker = engine.begin()
        engine.execute_sync(blocker, "db",
                            "UPDATE t SET w = w WHERE k = ?", (k,))
        blockers[k] = blocker
    reader = engine.begin()
    sql = scenario["sql"]
    lo = scenario["lo"] // 2 if "g >=" in sql else scenario["lo"]
    gen = engine.execute(reader, "db", sql, (lo,))
    waits = []
    try:
        item = next(gen)
        while True:
            assert isinstance(item, LockRequest) and not item.granted
            waits.append((item.resource, int(item.mode)))
            k = item.resource[-1]
            blocker = blockers.pop(k)
            action = scenario["at_wait"]
            if action == "update":
                engine.execute_sync(blocker, "db",
                                    "UPDATE t SET v = 9, w = 0 WHERE k = ?",
                                    (k,))
            elif action == "delete_waited":
                engine.execute_sync(blocker, "db",
                                    "DELETE FROM t WHERE k = ?", (k,))
            elif action == "delete_next":
                held = engine.locks.held(reader.txn_id)
                free = [n for n in range(k + 1, ROWS)
                        if n not in blockers
                        and ("row", "db", "t", n) not in held
                        and engine.database("db").table("t").get(n)]
                if free:
                    engine.execute_sync(blocker, "db",
                                        "DELETE FROM t WHERE k = ?",
                                        (free[0],))
            engine.commit(blocker)
            assert item.granted
            item = gen.send(None)
    except StopIteration as stop:
        result = stop.value
    held = list(engine.locks.held(reader.txn_id).items())
    engine.commit(reader)
    for blocker in blockers.values():
        engine.commit(blocker)
    return {"waits": waits, "rows": result.rows, "cost": result.cost,
            "held": held}


def check(scenario):
    saved = compile_module.BATCH_SIZE
    compile_module.BATCH_SIZE = scenario["batch_size"]
    try:
        got = run(Engine, scenario)
    finally:
        compile_module.BATCH_SIZE = saved
    expected = run(InterpretedEngine, scenario)
    for name in ("waits", "rows", "cost", "held"):
        assert got[name] == expected[name], (name, scenario["sql"])
    return got


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_range_read_waits_like_the_interpreter(scenario):
    check(scenario)


def test_a_wait_on_a_chunk_boundary_rereads_and_goes_on():
    """Rows 24, 25 and 27 blocked with chunks of 3 over k >= 22: the wait
    on 24 ends a chunk's grant, the one on 25 opens the next chunk; the
    waited-for row is deleted before it is granted, and the rest are
    read after the grants."""
    scenario = {"v": [k % 3 for k in range(ROWS)], "w": [0] * ROWS,
                "sql": QUERIES[0], "lo": 22, "blocked": [24, 25, 27],
                "at_wait": "delete_waited", "batch_size": 3}
    got = check(scenario)
    assert [resource[-1] for resource, _ in got["waits"]] == [24, 25, 27]
    assert [row[0] for row in got["rows"]] == [
        k for k in range(22, ROWS) if k not in (24, 25, 27)]
