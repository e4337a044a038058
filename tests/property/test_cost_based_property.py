"""Differential property tests for the planner's choices.

Three families, each against a reference engine from
``tests/oracles/engines.py``:

* production vs ``InterpretedEngine`` (same priced plans, the reference
  interpreter) — the full parity contract of
  ``test_compiled_executor_property``: same rows, rowcounts, CostReports,
  and lock footprints. Batch execution and top-N fusion must be invisible
  in every observable.
* production vs ``HeuristicEngine`` (the syntactic reference planner) on
  loaded data — the optimizer may pick different access paths and join
  orders, so physical observables (locks, scan counts) legitimately
  differ; the *answer* may not. Rows are compared as multisets (exact
  sequences when the query has a deterministic ORDER BY ... LIMIT shape
  would also hold, but the multiset check keeps the oracle independent
  of plan choice).
* plan identity — where production does not price (no statistics; every
  UPDATE/DELETE target scan) its pick rule over the enumerated candidates
  must build exactly the reference planner's plan.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.engine import planner as pl
from repro.engine.explain import explain
from repro.engine.sqlparse.parser import parse
from repro.sim.rng import SeededRNG
from repro.workloads.tpcw.datagen import TpcwDatabase, TpcwScale
from repro.workloads.tpcw.mixes import INTERACTIONS
from repro.workloads.tpcw.schema import TPCW_DDL
from repro.workloads.tpcw.transactions import TpcwSession

from tests.oracles.engines import HeuristicEngine, InterpretedEngine
from tests.oracles.heuristic_planner import HeuristicPlanner

values = st.integers(min_value=-20, max_value=20)
rows_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=60),
              st.one_of(st.none(), values),
              st.integers(min_value=-10, max_value=10),
              st.sampled_from(["alpha", "beta", "gamma", ""])),
    max_size=30,
    unique_by=lambda r: r[0],
)
dim_rows_strategy = st.lists(
    st.tuples(st.integers(min_value=-10, max_value=10),
              st.integers(min_value=0, max_value=3)),
    max_size=12,
    unique_by=lambda r: r[0],
)

#: A slot-keyed GROUP BY of simple aggregates over a range scan.
BEST_SELLERS = ("SELECT w, SUM(v), MIN(k) FROM t WHERE k >= ? GROUP BY w "
                "ORDER BY w LIMIT 5", 1)
QUERIES = [
    ("SELECT k, v FROM t WHERE k = ?", 1),
    ("SELECT k FROM t WHERE w = ?", 1),
    ("SELECT k FROM t WHERE w >= ? AND w <= ? AND v IS NOT NULL", 2),
    ("SELECT k, v, w FROM t WHERE v = ? OR w = ?", 2),
    ("SELECT COUNT(*), SUM(v), MIN(k), MAX(w) FROM t WHERE k < ?", 1),
    ("SELECT w, COUNT(*) FROM t GROUP BY w", 0),
    ("SELECT k, s FROM t WHERE v >= ? ORDER BY s DESC, k LIMIT 4", 1),
    ("SELECT k FROM t ORDER BY v, k LIMIT 3 OFFSET 1", 0),
    ("SELECT t.k, d.grp FROM t, d WHERE t.w = d.id", 0),
    ("SELECT t.k FROM t, d WHERE t.w = d.id AND d.grp = ?", 1),
    ("SELECT COUNT(*) FROM t, d WHERE t.w = d.id AND d.grp = ? "
     "AND t.v IS NOT NULL", 1),
    # TPC-W's BestSellers: the one aggregate that loops over batches.
    BEST_SELLERS,
    # Multi-column GROUP BY with no aggregates, over a range and a heap.
    ("SELECT w, s FROM t WHERE k >= ? GROUP BY w, s", 1),
    ("SELECT w, s FROM t WHERE k >= ? GROUP BY w, s ORDER BY s DESC, w", 1),
    ("SELECT w, s FROM t GROUP BY w, s", 0),
]
# An unfused LIMIT stops its scan where the cap is reached, so its child
# must not run batched (rows_scanned would run ahead). Which rows come
# back depends on the access path, so these are for executor parity only.
UNFUSED_LIMIT_QUERIES = [
    ("SELECT k, v FROM t LIMIT 2", 0),
    ("SELECT k FROM t WHERE w >= ? LIMIT 2 OFFSET 1", 1),
]


def build_engine(rows, dim_rows, engine_class=Engine):
    engine = engine_class()
    engine.create_database("db")
    txn = engine.begin()
    engine.execute_sync(
        txn, "db",
        "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER, "
        "w INTEGER, s VARCHAR(10))")
    engine.execute_sync(txn, "db", "CREATE INDEX t_w ON t (w)")
    engine.execute_sync(
        txn, "db",
        "CREATE TABLE d (id INTEGER PRIMARY KEY, grp INTEGER)")
    engine.execute_sync(txn, "db", "CREATE INDEX d_grp ON d (grp)")
    for row in rows:
        engine.execute_sync(txn, "db",
                            "INSERT INTO t VALUES (?, ?, ?, ?)", row)
    for row in dim_rows:
        engine.execute_sync(txn, "db", "INSERT INTO d VALUES (?, ?)", row)
    engine.commit(txn)
    return engine


def run_one(engine, sql, params):
    txn = engine.begin()
    try:
        result = engine.execute_sync(txn, "db", sql, params)
        held = dict(engine.locks.held(txn.txn_id))
        engine.commit(txn)
        return result, held, None
    except Exception as exc:  # noqa: BLE001 - compared across engines
        engine.abort(txn)
        return None, None, (type(exc).__name__, str(exc))


@settings(max_examples=50, deadline=None)
@given(rows_strategy, dim_rows_strategy,
       st.sampled_from(QUERIES + UNFUSED_LIMIT_QUERIES),
       st.lists(values, min_size=2, max_size=2))
# Enough rows that BestSellers plans an IndexRangeScan, so the grouped
# aggregate runs over batches.
@example(rows=[(k, None if k % 7 == 0 else k % 5 - 2, k % 4, "alpha")
               for k in range(30)],
         dim_rows=[], query=BEST_SELLERS, raw_params=[10, 0])
def test_compiled_batch_full_parity(rows, dim_rows, query, raw_params):
    """Compiled (batches, fused top-N) vs the interpreter over the same
    priced plans: everything observable must be identical."""
    sql, arity = query
    params = tuple(raw_params[:arity])
    engines = [build_engine(rows, dim_rows),
               build_engine(rows, dim_rows, InterpretedEngine)]
    (res_c, held_c, err_c), (res_i, held_i, err_i) = [
        run_one(engine, sql, params) for engine in engines]
    assert err_c == err_i, f"{sql}: errors diverge: {err_c} vs {err_i}"
    if err_c is not None:
        return
    assert held_c == held_i, f"{sql}: lock footprints diverge"
    assert res_c.columns == res_i.columns
    assert res_c.rows == res_i.rows, f"{sql}: rows diverge"
    assert res_c.rowcount == res_i.rowcount
    assert res_c.cost == res_i.cost, (
        f"{sql}: cost reports diverge: {res_c.cost} vs {res_i.cost}")


@settings(max_examples=50, deadline=None)
@given(rows_strategy, dim_rows_strategy,
       st.sampled_from(QUERIES), st.lists(values, min_size=2, max_size=2))
def test_cost_based_answers_match_heuristic(rows, dim_rows, query,
                                            raw_params):
    """Plan choice may differ; the answer may not."""
    sql, arity = query
    params = tuple(raw_params[:arity])
    engines = [build_engine(rows, dim_rows),
               build_engine(rows, dim_rows, HeuristicEngine)]
    (res_c, _, err_c), (res_h, _, err_h) = [
        run_one(engine, sql, params) for engine in engines]
    assert err_c == err_h, f"{sql}: errors diverge: {err_c} vs {err_h}"
    if err_c is not None:
        return
    assert res_c.columns == res_h.columns
    assert res_c.rowcount == res_h.rowcount, f"{sql}: rowcount diverges"
    if " ORDER BY " in sql:
        # Deterministic output order (every ORDER BY here is a total
        # order thanks to the k tiebreaker or a LIMIT over one).
        assert res_c.rows == res_h.rows, f"{sql}: ordered rows diverge"
    else:
        assert Counter(res_c.rows) == Counter(res_h.rows), (
            f"{sql}: row multisets diverge")


@settings(max_examples=30, deadline=None)
@given(rows_strategy, dim_rows_strategy,
       st.lists(st.sampled_from([
           ("UPDATE t SET v = ? WHERE w = ?", 2),
           ("UPDATE t SET w = w + 1, s = 'x' WHERE k >= ?", 1),
           ("DELETE FROM t WHERE v = ?", 1),
           ("INSERT INTO t VALUES (?, 1, 2, 'n')", 1),
       ]), min_size=1, max_size=3),
       st.lists(values, min_size=2, max_size=2))
def test_dml_state_matches_heuristic(rows, dim_rows, stmts, raw_params):
    """After identical DML, both planners leave identical tables."""
    engines = [build_engine(rows, dim_rows),
               build_engine(rows, dim_rows, HeuristicEngine)]
    for sql, arity in stmts:
        params = tuple(raw_params[:arity])
        if sql.startswith("INSERT"):
            params = (100 + params[0],)
        outcomes = [run_one(engine, sql, params) for engine in engines]
        assert outcomes[0][2] == outcomes[1][2]
    finals = [run_one(engine, "SELECT k, v, w, s FROM t ORDER BY k", ())
              for engine in engines]
    assert finals[0][2] is None
    assert finals[0][0].rows == finals[1][0].rows


# -- plan identity: the pick rule vs the reference planner --------------------
# Two indexes share the leading column ``a`` (first-index-wins ties, and a
# longer prefix on the *later* index), the primary key offers a range
# ahead of every secondary equality, and ``w`` has no index at all (hash
# and cross joins).

IDENTITY_DDL = [
    "CREATE TABLE t (k INTEGER PRIMARY KEY, a INTEGER, b INTEGER, "
    "c INTEGER, s VARCHAR(10))",
    "CREATE INDEX t_a ON t (a)",
    "CREATE INDEX t_ab ON t (a, b)",
    "CREATE INDEX t_c ON t (c)",
    "CREATE TABLE u (id INTEGER PRIMARY KEY, a INTEGER, g INTEGER)",
    "CREATE INDEX u_a ON u (a)",
    "CREATE TABLE w (x INTEGER, y INTEGER)",
]
FROMS = [  # (FROM clause, tables it binds)
    ("t", "t"), ("t, u", "tu"), ("u, t", "tu"),
    ("t JOIN u ON t.a = u.a", "tu"), ("u JOIN t ON t.k = u.id", "tu"),
    ("t, w", "tw"), ("w, t", "tw"), ("u, w", "uw"),
    ("t, u, w", "tuw"), ("w, u, t", "tuw"),
]
CONJUNCTS = [  # (conjunct, tables it mentions)
    ("t.k = ?", "t"), ("t.a = ?", "t"), ("t.b = ?", "t"), ("t.c = ?", "t"),
    ("? = t.a", "t"), ("t.a = 3", "t"), ("t.k > ?", "t"), ("t.k <= ?", "t"),
    ("t.c >= ?", "t"), ("t.c < 5", "t"), ("t.a > ?", "t"), ("t.b < ?", "t"),
    ("t.s LIKE 'x%'", "t"), ("t.a = t.b", "t"), ("t.k = t.a + 1", "t"),
    ("t.c BETWEEN ? AND ?", "t"), ("t.a IN (1, 2)", "t"),
    ("t.a + 1 = ?", "t"), ("t.b IS NULL", "t"),
    ("u.id = ?", "u"), ("u.a = ?", "u"), ("u.g = ?", "u"), ("u.id >= ?", "u"),
    ("w.x = ?", "w"), ("w.y > ?", "w"),
    ("t.a = u.a", "tu"), ("u.a = t.a", "tu"), ("t.b = u.g", "tu"),
    ("t.k = u.id", "tu"), ("u.id = t.c", "tu"), ("t.k > u.id", "tu"),
    ("u.g < t.c", "tu"), ("t.a = u.a + 1", "tu"), ("t.c + 1 = u.id", "tu"),
    ("t.a = w.x", "tw"), ("w.x = t.k", "tw"), ("t.c < w.y", "tw"),
    ("w.y = u.g", "uw"), ("u.id = w.x", "uw"), ("u.a + w.x = 3", "uw"),
]
TAILS = ["", " LIMIT 3", " FOR UPDATE"]


def schema_engine(ddl):
    engine = Engine()
    engine.create_database_from_ddl("db", ddl)
    return engine


IDENTITY_ENGINE = schema_engine(IDENTITY_DDL)


def plan_with(planner, sql):
    stmt = parse(sql)
    plan = getattr(planner, "plan_" + type(stmt).__name__.lower())
    return plan(stmt)


def strip_estimates(text):
    return "\n".join(line.split("  (~")[0] for line in text.splitlines())


def assert_unpriced_plan_matches_reference(engine, sql):
    """Without statistics — a planner over the bare schema, and the
    engine's own planner while every table is empty — production builds
    the reference planner's plan."""
    schema = engine.database("db").schema
    reference = plan_with(HeuristicPlanner(schema), sql)
    bare = plan_with(pl.Planner(schema), sql)
    assert bare == reference, sql
    assert explain(bare, verbose=True) == explain(reference), sql
    empty = engine.plan("db", sql)
    assert empty == reference, sql
    assert strip_estimates(explain(empty, verbose=True)) == explain(
        reference), sql


def where_of(tables, picked):
    conjuncts = [text for text, needs in picked if set(needs) <= set(tables)]
    return " WHERE " + " AND ".join(conjuncts) if conjuncts else ""


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FROMS),
       st.lists(st.sampled_from(CONJUNCTS), max_size=5),
       st.sampled_from(TAILS))
# The statements that tell the pick rule from its nearest wrong
# neighbours: the longest equality prefix is on a later index than the
# first one; a range is enumerated ahead of an equality.
@example(("t", "t"), [("t.a = ?", "t"), ("t.b = ?", "t")], "")
@example(("t", "t"), [("t.k > ?", "t"), ("t.a = ?", "t")], "")
@example(("u, t", "tu"), [("u.g = ?", "u"), ("t.a = u.a", "tu"),
                          ("t.b = u.g", "tu")], "")
@example(("u, t", "tu"), [("t.k > u.id", "tu"), ("t.a = u.a", "tu")], "")
def test_unpriced_select_plan_is_the_reference_plan(from_, picked, tail):
    clause, tables = from_
    sql = f"SELECT * FROM {clause}{where_of(tables, picked)}{tail}"
    assert_unpriced_plan_matches_reference(IDENTITY_ENGINE, sql)


class RecordingConnection:
    """Stands in for a cluster ``Connection``: runs each statement on one
    engine and remembers the distinct SQL texts."""

    def __init__(self, engine):
        self.engine = engine
        self.txn = engine.begin()
        self.statements = []

    def execute(self, sql, params=()):
        if sql not in self.statements:
            self.statements.append(sql)
        return self.engine.execute_sync(self.txn, "db", sql, params)

    def commit(self):
        self.engine.commit(self.txn)
        self.txn = self.engine.begin()


@pytest.fixture(scope="module")
def shopping():
    """(loaded TPC-W engine, every statement its interactions issue)."""
    engine = schema_engine(TPCW_DDL)
    data = TpcwDatabase(TpcwScale(items=40, emulated_browsers=2), seed=1)
    for table, rows in data.rows.items():
        engine.load_table_rows("db", table, [tuple(r) for r in rows])
    conn = RecordingConnection(engine)
    session = TpcwSession(conn, data, SeededRNG(5), customer_id=3, cart_id=2)
    for _ in range(200):
        # Extra cart visits: bumping a line already in the cart is the
        # rarest statement, and buy_confirm empties the cart every round.
        for name in ["shopping_cart"] * 4 + INTERACTIONS:
            interaction = getattr(session, name)()
            reply = None
            try:
                while True:  # the client loop: send each result back in
                    reply = interaction.send(reply)
            except StopIteration:
                pass
        if len(conn.statements) == 30:
            break
    assert len(conn.statements) == 30
    return engine, conn.statements


def test_unpriced_shopping_mix_plans_are_the_reference_plans(shopping):
    _, statements = shopping
    unloaded = schema_engine(TPCW_DDL)
    for sql in statements:
        assert_unpriced_plan_matches_reference(unloaded, sql)


def test_shopping_mix_dml_plans_ignore_statistics(shopping):
    engine, statements = shopping
    reference = HeuristicPlanner(engine.database("db").schema)
    dml = [sql for sql in statements if not sql.startswith("SELECT")]
    assert len(dml) == 11
    for sql in dml:
        assert engine.plan("db", sql) == plan_with(reference, sql), sql


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 5),
                          st.integers(0, 5), st.integers(0, 9)),
                min_size=1, max_size=30, unique_by=lambda r: r[0]),
       st.sampled_from(["UPDATE t SET s = 'x'", "DELETE FROM t",
                        "UPDATE t SET a = a + 1, c = ?"]),
       st.lists(st.sampled_from([c for c in CONJUNCTS if c[1] == "t"]),
                max_size=4))
def test_dml_target_scan_ignores_statistics(rows, head, picked):
    """With statistics that would price a different path, UPDATE/DELETE
    still scan (and so lock) as the reference planner says."""
    engine = schema_engine(IDENTITY_DDL)
    engine.load_table_rows("db", "t", [row + ("s",) for row in rows])
    assert engine.database("db").stats["t"].row_count == len(rows)
    sql = head + where_of("t", picked)
    production = engine.plan("db", sql)
    reference = plan_with(HeuristicPlanner(engine.database("db").schema), sql)
    assert production == reference, sql
    assert explain(production) == explain(reference), sql
