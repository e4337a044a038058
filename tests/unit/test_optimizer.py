"""Unit tests for the cost-based optimizer stage.

Covers the acceptance contract of the optimizer PR: join orders picked
by estimated cost (not syntax) where the syntactic reference planner
(``tests/oracles/heuristic_planner.py``) keeps the written order,
conservative deferral to the syntactic pick on empty tables, and the
EXPLAIN surface (estimate suffixes, verbose rejected plans).
"""

from repro.engine import Engine
from repro.engine.explain import explain

from tests.oracles.engines import HeuristicEngine


def populated_engine(engine_class=Engine):
    """t: 300 fact rows (t.v points into d.id, 40-ish rows per value);
    d: 50 dimension rows fanned 10 ways by the indexed d.grp."""
    engine = engine_class()
    engine.create_database("db")
    txn = engine.begin()
    engine.execute_sync(txn, "db",
                        "CREATE TABLE t (k INTEGER PRIMARY KEY, "
                        "v INTEGER, s VARCHAR(10))")
    engine.execute_sync(txn, "db", "CREATE INDEX t_v ON t (v)")
    engine.execute_sync(txn, "db",
                        "CREATE TABLE d (id INTEGER PRIMARY KEY, "
                        "grp INTEGER, label VARCHAR(10))")
    engine.execute_sync(txn, "db", "CREATE INDEX d_grp ON d (grp)")
    for k in range(300):
        engine.execute_sync(txn, "db", "INSERT INTO t VALUES (?, ?, ?)",
                            (k, k % 50, f"s{k}"))
    for i in range(50):
        engine.execute_sync(txn, "db", "INSERT INTO d VALUES (?, ?, ?)",
                            (i, i % 10, f"d{i}"))
    engine.commit(txn)
    return engine


JOIN_SQL = "SELECT COUNT(*) FROM t, d WHERE t.v = d.id AND d.grp = ?"


class TestJoinOrder:
    def test_picks_non_syntactic_join_order(self):
        """t is listed first, but starting from the filtered d (5 rows
        via the d_grp index) and index-looking-up into t is cheaper —
        the optimizer must reorder."""
        engine = populated_engine()
        text = explain(engine.plan("db", JOIN_SQL))
        lines = text.splitlines()
        scans = [line for line in lines if "Scan" in line]
        # The first (outermost) access is d via its grp index, not t.
        assert "d.d_grp" in scans[0], text
        assert "IndexLookupJoin" in text
        # The inner side probes t through the t_v index.
        assert any("t.t_v" in line for line in scans[1:]), text

    def test_heuristic_keeps_syntactic_order(self):
        engine = populated_engine(HeuristicEngine)
        text = explain(engine.plan("db", JOIN_SQL))
        scans = [line for line in text.splitlines() if "Scan" in line]
        assert " t" in scans[0] or "t." in scans[0], text
        assert "d.d_grp" not in scans[0]

    def test_reordered_join_answers_match(self):
        answers = []
        for engine_class in (Engine, HeuristicEngine):
            engine = populated_engine(engine_class)
            txn = engine.begin()
            result = engine.execute_sync(txn, "db", JOIN_SQL, (3,))
            engine.commit(txn)
            answers.append(result.scalar())
        assert answers[0] == answers[1] == 30  # ids {3,13,23,33,43}∩[0,50)·6


class TestHeuristicPreserved:
    def test_empty_tables_defer_to_heuristic(self):
        """No statistics yet → production plans exactly as the
        reference planner does (the conservative fallback)."""
        for sql in ["SELECT k FROM t WHERE v = 3",
                    "SELECT t.k FROM t, d WHERE t.v = d.id AND d.grp = 1",
                    "SELECT k FROM t WHERE k > 5 ORDER BY k LIMIT 2"]:
            structures = []
            for engine_class in (Engine, HeuristicEngine):
                engine = engine_class()
                engine.create_database("db")
                txn = engine.begin()
                engine.execute_sync(
                    txn, "db", "CREATE TABLE t (k INTEGER PRIMARY KEY, "
                               "v INTEGER, s VARCHAR(10))")
                engine.execute_sync(txn, "db", "CREATE INDEX t_v ON t (v)")
                engine.execute_sync(
                    txn, "db", "CREATE TABLE d (id INTEGER PRIMARY KEY, "
                               "grp INTEGER, label VARCHAR(10))")
                engine.execute_sync(txn, "db",
                                    "CREATE INDEX d_grp ON d (grp)")
                engine.commit(txn)
                text = explain(engine.plan("db", sql))
                # Strip the estimate suffix; shape must be identical.
                structures.append(
                    [line.split("  (~")[0] for line in text.splitlines()])
            assert structures[0] == structures[1], sql


class TestExplainEstimates:
    def test_estimate_suffix_on_annotated_nodes(self):
        engine = populated_engine()
        text = explain(engine.plan("db",
                                   "SELECT k FROM t WHERE v = 3"))
        assert "rows, cost" in text
        # v = 3 matches exactly 6 of 300 rows; the sketch is exact.
        assert "(~6 rows" in text, text

    def test_verbose_lists_rejected_plans(self):
        engine = populated_engine()
        terse = explain(engine.plan("db", JOIN_SQL))
        verbose = explain(engine.plan("db", JOIN_SQL), verbose=True)
        assert "rejected" not in terse
        assert "rejected plans:" in verbose
        assert "join order" in verbose
        assert "SeqScan" in verbose  # a priced, discarded alternative

    def test_access_path_rejection_noted(self):
        engine = populated_engine()
        verbose = explain(engine.plan("db", "SELECT k FROM t WHERE v = 3"),
                          verbose=True)
        assert "kept IndexEqScan(t_v)" in verbose
        assert "rejected" in verbose and "SeqScan" in verbose


class TestSelectivityDrivenAccessPath:
    def test_selective_literal_prefers_index(self):
        engine = populated_engine()
        text = explain(engine.plan("db", "SELECT k FROM t WHERE v = 3"))
        assert "IndexEqScan t.t_v" in text

    def test_wide_range_prefers_seq_scan(self):
        """A range covering every row costs more through the index
        (probe + per-row fetch) than one sequential pass. The bound must
        be a plain literal — a negative number parses as NEG(literal),
        which prices with the default selectivity instead."""
        engine = populated_engine()
        text = explain(engine.plan(
            "db", "SELECT k FROM t WHERE v >= 0"))
        assert "SeqScan t" in text, text

    def test_narrow_range_prefers_index(self):
        engine = populated_engine()
        text = explain(engine.plan(
            "db", "SELECT k FROM t WHERE v >= 10 AND v < 12"))
        assert "IndexRangeScan t.t_v" in text, text
