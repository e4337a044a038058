"""The tree-walking plan interpreter — the executor's reference implementation.

This is ``repro/engine/executor.py`` lines 172–780 as of PR 15, verbatim
(only the imports changed): expression evaluation, ``run_plan``, the
scan/join/aggregate/sort interpreters and the four ``execute_*`` entry
points. It re-dispatches on ``isinstance`` for every plan node and
re-interprets every bound expression once per row, which is what makes it
easy to read and slow to run; production compiles plans instead
(:mod:`repro.engine.compile`). ``tests/oracles/engines.py`` wraps it as an
engine, and ``tests/property/test_compiled_executor_property.py`` /
``test_cost_based_property.py`` require the compiled executor to match it
on rows, rowcounts, cost reports, lock footprints and errors.
"""

from __future__ import annotations

import heapq
from functools import cmp_to_key
from typing import Any, Dict, Generator, List, Tuple

from repro.engine import planner as p
from repro.engine.executor import ExecContext, ExecResult
from repro.engine.locks import LockMode, LockRequest
from repro.engine.sqlparse import nodes as n
from repro.engine.storage import HeapTable
from repro.engine.transactions import UndoEntry
from repro.engine.types import like_match, sql_compare, sql_eq
from repro.engine.wal import RecordType
from repro.errors import ConstraintError, SqlError


# -- expression evaluation ---------------------------------------------------
# Three-valued logic: None propagates as SQL UNKNOWN; Filter keeps a row
# only when its predicate evaluates to True.


def eval_expr(expr: n.Expr, row: Tuple[Any, ...],
              ctx: ExecContext) -> Any:
    if isinstance(expr, n.Literal):
        return expr.value
    if isinstance(expr, n.Param):
        try:
            return ctx.params[expr.index]
        except IndexError:
            raise SqlError(
                f"statement has parameter ${expr.index} but only "
                f"{len(ctx.params)} values were bound"
            ) from None
    if isinstance(expr, (p.Slot, p.AggSlot)):
        return row[expr.index]
    if isinstance(expr, n.BinaryOp):
        return _eval_binary(expr, row, ctx)
    if isinstance(expr, n.UnaryOp):
        value = eval_expr(expr.operand, row, ctx)
        if expr.op == "NOT":
            return None if value is None else (not value)
        if expr.op == "NEG":
            return None if value is None else -value
        raise SqlError(f"unknown unary op {expr.op}")
    if isinstance(expr, n.InList):
        value = eval_expr(expr.expr, row, ctx)
        if value is None:
            return None
        saw_null = False
        for item in expr.items:
            other = eval_expr(item, row, ctx)
            verdict = sql_eq(value, other)
            if verdict is None:
                saw_null = True
            elif verdict:
                return not expr.negated
        if saw_null:
            return None
        return expr.negated
    if isinstance(expr, n.Between):
        value = eval_expr(expr.expr, row, ctx)
        low = eval_expr(expr.low, row, ctx)
        high = eval_expr(expr.high, row, ctx)
        lo_cmp = sql_compare(value, low)
        hi_cmp = sql_compare(value, high)
        if lo_cmp is None or hi_cmp is None:
            return None
        inside = lo_cmp >= 0 and hi_cmp <= 0
        return inside != expr.negated
    if isinstance(expr, n.IsNull):
        value = eval_expr(expr.expr, row, ctx)
        return (value is None) != expr.negated
    raise SqlError(f"cannot evaluate {expr!r}")


def _eval_binary(expr: n.BinaryOp, row: Tuple[Any, ...],
                 ctx: ExecContext) -> Any:
    op = expr.op
    if op == "AND":
        left = eval_expr(expr.left, row, ctx)
        if left is False:
            return False
        right = eval_expr(expr.right, row, ctx)
        if right is False:
            return False
        if left is None or right is None:
            return None
        return bool(left) and bool(right)
    if op == "OR":
        left = eval_expr(expr.left, row, ctx)
        if left is True:
            return True
        right = eval_expr(expr.right, row, ctx)
        if right is True:
            return True
        if left is None or right is None:
            return None
        return bool(left) or bool(right)
    left = eval_expr(expr.left, row, ctx)
    right = eval_expr(expr.right, row, ctx)
    if op == "=":
        return sql_eq(left, right)
    if op == "<>":
        verdict = sql_eq(left, right)
        return None if verdict is None else not verdict
    if op in ("<", "<=", ">", ">="):
        cmp = sql_compare(left, right)
        if cmp is None:
            return None
        return {"<": cmp < 0, "<=": cmp <= 0,
                ">": cmp > 0, ">=": cmp >= 0}[op]
    if op == "LIKE":
        if right is None:
            return None
        return like_match(left, str(right))
    if left is None or right is None:
        return None
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None
        result = left / right
        return result
    raise SqlError(f"unknown operator {op}")


def _truthy(value: Any) -> bool:
    return value is True or (value not in (None, False) and bool(value))


# -- plan interpretation -------------------------------------------------------


def run_plan(plan: p.Plan, ctx: ExecContext) -> Generator:
    """Yield LockRequests and row tuples for a read-only plan subtree."""
    if isinstance(plan, p.SeqScan):
        yield from _seq_scan(plan, ctx, with_rids=False)
    elif isinstance(plan, p.IndexEqScan):
        yield from _index_eq_scan(plan, ctx, outer_row=(), with_rids=False)
    elif isinstance(plan, p.IndexRangeScan):
        yield from _index_range_scan(plan, ctx, with_rids=False)
    elif isinstance(plan, p.Filter):
        for item in run_plan(plan.child, ctx):
            if isinstance(item, LockRequest):
                yield item
            elif _truthy(eval_expr(plan.predicate, item, ctx)):
                yield item
    elif isinstance(plan, p.IndexLookupJoin):
        yield from _index_lookup_join(plan, ctx)
    elif isinstance(plan, p.HashJoin):
        yield from _hash_join(plan, ctx)
    elif isinstance(plan, p.CrossJoin):
        yield from _cross_join(plan, ctx)
    elif isinstance(plan, p.Project):
        for item in run_plan(plan.child, ctx):
            if isinstance(item, LockRequest):
                yield item
            else:
                yield tuple(eval_expr(e, item, ctx) for e in plan.exprs)
    elif isinstance(plan, p.Aggregate):
        yield from _aggregate(plan, ctx)
    elif isinstance(plan, p.Sort):
        yield from _sort(plan, ctx)
    elif isinstance(plan, p.Limit):
        yield from _limit(plan, ctx)
    elif isinstance(plan, p.Distinct):
        seen = set()
        for item in run_plan(plan.child, ctx):
            if isinstance(item, LockRequest):
                yield item
            elif item not in seen:
                seen.add(item)
                yield item
    else:
        raise SqlError(f"cannot execute plan node {type(plan).__name__}")


def _scan_lock_modes(exclusive: bool) -> Tuple[LockMode, LockMode]:
    """(table mode, row mode) for a scan."""
    if exclusive:
        return LockMode.IX, LockMode.X
    return LockMode.IS, LockMode.S


def _seq_scan(plan: p.SeqScan, ctx: ExecContext, with_rids: bool) -> Generator:
    table = ctx.database.table(plan.binding.table)
    nonlocking = ctx.nonlocking_reads and not plan.lock_exclusive
    if not nonlocking:
        mode = LockMode.X if plan.lock_exclusive else LockMode.S
        yield from ctx.lock(ctx.table_resource(plan.binding.table), mode)
    ctx.touch(table.heap_pages())
    for rid, row in list(table.scan()):
        if nonlocking:
            row = ctx.committed_view(plan.binding.table, rid, row)
            if row is None:
                continue  # uncommitted insert by another transaction
        ctx.cost.rows_scanned += 1
        ctx.record_read(plan.binding.table, table.pk_key(row)
                        if table.schema.primary_key else (rid,))
        yield (rid, row) if with_rids else row


def _index_eq_scan(plan: p.IndexEqScan, ctx: ExecContext,
                   outer_row: Tuple[Any, ...], with_rids: bool) -> Generator:
    table = ctx.database.table(plan.binding.table)
    table_mode, row_mode = _scan_lock_modes(plan.lock_exclusive)
    if not (ctx.nonlocking_reads and not plan.lock_exclusive):
        yield from ctx.lock(ctx.table_resource(plan.binding.table),
                            table_mode)
    key = tuple(eval_expr(e, outer_row, ctx) for e in plan.key_exprs)
    index = table.indexes[plan.index.name]
    ctx.touch(table.index_pages(plan.index.name, key))
    if len(key) == len(plan.index.columns):
        rids = sorted(index.search(key))
    else:
        # Prefix match: range scan over the composite key space, in key
        # order (so ORDER BY on the index prefix can elide its sort).
        rids = []
        for full_key, key_rids in index.range_scan(key, None):
            if full_key[: len(key)] != key:
                break
            rids.extend(sorted(key_rids))
    for rid in rids:
        yield from _fetch_row(plan, table, ctx, rid, row_mode, with_rids)


def _index_range_scan(plan: p.IndexRangeScan, ctx: ExecContext,
                      with_rids: bool,
                      outer_row: Tuple[Any, ...] = ()) -> Generator:
    table = ctx.database.table(plan.binding.table)
    table_mode, row_mode = _scan_lock_modes(plan.lock_exclusive)
    if not (ctx.nonlocking_reads and not plan.lock_exclusive):
        yield from ctx.lock(ctx.table_resource(plan.binding.table),
                            table_mode)
    lo = (eval_expr(plan.lo, outer_row, ctx),) if plan.lo is not None else None
    hi = (eval_expr(plan.hi, outer_row, ctx),) if plan.hi is not None else None
    index = table.indexes[plan.index.name]
    # Rows are collected and emitted in *index key order*, so ORDER BY on
    # the range column can elide its sort and stream through LIMIT —
    # which also bounds how many rows a top-k query ever locks.
    matches: List[int] = []
    probe_key = lo if lo is not None else hi
    ctx.touch(table.index_pages(plan.index.name, probe_key or ()))
    if len(plan.index.columns) == 1:
        for _, key_rids in index.range_scan(lo, hi, plan.lo_inclusive,
                                            plan.hi_inclusive):
            matches.extend(sorted(key_rids))
    else:
        # Range over the first column of a composite index.
        for full_key, key_rids in index.range_scan(lo, None):
            if hi is not None:
                first = (full_key[0],)
                cmp = sql_compare(first[0], hi[0])
                if cmp is None or cmp > 0 or (cmp == 0 and not plan.hi_inclusive):
                    break
            matches.extend(sorted(key_rids))
    # Extra leaf pages proportional to range width.
    extra_leaves = max(0, len(matches) // max(1, ctx.database.config.rows_per_page))
    ctx.touch((ctx.database.name, plan.binding.table, "ix",
               plan.index.name, "leafrange", i) for i in range(extra_leaves))
    for rid in matches:
        yield from _fetch_row(plan, table, ctx, rid, row_mode, with_rids)


def _fetch_row(plan, table: HeapTable, ctx: ExecContext, rid: int,
               row_mode: LockMode, with_rids: bool) -> Generator:
    """Lock one rid, re-check visibility, charge its heap page, emit.

    In non-locking-read mode a shared fetch skips the lock entirely and
    reads the last committed image of the row instead.
    """
    if table.get(rid) is None:
        return
    if ctx.nonlocking_reads and row_mode is LockMode.S:
        row = ctx.committed_view(plan.binding.table, rid, table.get(rid))
        if row is None:
            return  # uncommitted insert by another transaction
    else:
        yield from ctx.lock(ctx.row_resource(plan.binding.table, rid),
                            row_mode)
        row = table.get(rid)
        if row is None:
            # Deleted while we waited for the lock.
            return
    ctx.touch([table.heap_page(rid)])
    ctx.cost.rows_scanned += 1
    ctx.record_read(plan.binding.table, table.pk_key(row)
                    if table.schema.primary_key else (rid,))
    yield (rid, row) if with_rids else row


def _index_lookup_join(plan: p.IndexLookupJoin, ctx: ExecContext) -> Generator:
    for item in run_plan(plan.outer, ctx):
        if isinstance(item, LockRequest):
            yield item
            continue
        outer_row = item
        inner = plan.inner
        if isinstance(inner, p.IndexEqScan):
            inner_iter = _index_eq_scan(inner, ctx, outer_row, with_rids=False)
        elif isinstance(inner, p.IndexRangeScan):
            inner_iter = _index_range_scan(inner, ctx, with_rids=False,
                                           outer_row=outer_row)
        else:
            raise SqlError("index lookup join requires an index scan inner")
        for inner_item in inner_iter:
            if isinstance(inner_item, LockRequest):
                yield inner_item
            else:
                yield outer_row + inner_item


def _hash_join(plan: p.HashJoin, ctx: ExecContext) -> Generator:
    # Build side: the inner table, keyed by its join columns.
    build: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
    pad = (None,) * plan.inner_offset
    for item in run_plan(plan.inner, ctx):
        if isinstance(item, LockRequest):
            yield item
            continue
        padded = pad + item
        key = tuple(eval_expr(e, padded, ctx) for e in plan.inner_keys)
        if any(v is None for v in key):
            continue
        build.setdefault(key, []).append(item)
    for item in run_plan(plan.outer, ctx):
        if isinstance(item, LockRequest):
            yield item
            continue
        key = tuple(eval_expr(e, item, ctx) for e in plan.outer_keys)
        if any(v is None for v in key):
            continue
        for inner_row in build.get(key, ()):
            yield item + inner_row


def _cross_join(plan: p.CrossJoin, ctx: ExecContext) -> Generator:
    inner_rows: List[Tuple[Any, ...]] = []
    for item in run_plan(plan.inner, ctx):
        if isinstance(item, LockRequest):
            yield item
        else:
            inner_rows.append(item)
    for item in run_plan(plan.outer, ctx):
        if isinstance(item, LockRequest):
            yield item
            continue
        for inner_row in inner_rows:
            yield item + inner_row


class _AggState:
    """Accumulator for one aggregate within one group."""

    __slots__ = ("item", "count", "total", "best", "distinct_seen")

    def __init__(self, item: p.AggItem):
        self.item = item
        self.count = 0
        # Integer zero: SUM over INTEGER columns stays an int (as in
        # MySQL); adding any FLOAT value promotes the total to float.
        self.total = 0
        self.best: Any = None
        self.distinct_seen = set() if item.distinct else None

    def update(self, row: Tuple[Any, ...], ctx: ExecContext) -> None:
        if self.item.star:
            self.count += 1
            return
        value = eval_expr(self.item.arg, row, ctx)
        if value is None:
            return
        if self.distinct_seen is not None:
            if value in self.distinct_seen:
                return
            self.distinct_seen.add(value)
        self.count += 1
        if self.item.func in ("SUM", "AVG"):
            self.total += value
        elif self.item.func == "MIN":
            if self.best is None or value < self.best:
                self.best = value
        elif self.item.func == "MAX":
            if self.best is None or value > self.best:
                self.best = value

    def result(self) -> Any:
        func = self.item.func
        if func == "COUNT":
            return self.count
        if func == "SUM":
            return self.total if self.count else None
        if func == "AVG":
            return self.total / self.count if self.count else None
        return self.best


def _aggregate(plan: p.Aggregate, ctx: ExecContext) -> Generator:
    groups: Dict[Tuple[Any, ...], List[_AggState]] = {}
    order: List[Tuple[Any, ...]] = []
    for item in run_plan(plan.child, ctx):
        if isinstance(item, LockRequest):
            yield item
            continue
        key = tuple(eval_expr(g, item, ctx) for g in plan.group_exprs)
        if key not in groups:
            groups[key] = [_AggState(a) for a in plan.aggs]
            order.append(key)
        for state in groups[key]:
            state.update(item, ctx)
    if not groups and not plan.group_exprs:
        # Global aggregate over empty input still emits one row.
        groups[()] = [_AggState(a) for a in plan.aggs]
        order.append(())
    for key in order:
        yield key + tuple(state.result() for state in groups[key])


def _sort_comparator(keys, ctx: ExecContext):
    """The ORDER BY comparator: NULLs first ascending, last descending."""

    def compare(a: Tuple[Any, ...], b: Tuple[Any, ...]) -> int:
        for expr, descending in keys:
            va = eval_expr(expr, a, ctx)
            vb = eval_expr(expr, b, ctx)
            if va is None and vb is None:
                continue
            if va is None:
                cmp = -1
            elif vb is None:
                cmp = 1
            else:
                cmp = sql_compare(va, vb) or 0
            if cmp:
                return -cmp if descending else cmp
        return 0

    return compare


def _sort(plan: p.Sort, ctx: ExecContext) -> Generator:
    rows: List[Tuple[Any, ...]] = []
    for item in run_plan(plan.child, ctx):
        if isinstance(item, LockRequest):
            yield item
        else:
            rows.append(item)
    rows.sort(key=cmp_to_key(_sort_comparator(plan.keys, ctx)))
    for row in rows:
        yield row


def _limit(plan: p.Limit, ctx: ExecContext) -> Generator:
    if plan.limit is not None:
        # Fuse Limit(Sort) / Limit(Project(Sort)) into a bounded top-N.
        # heapq.nsmallest is documented equivalent to sorted(...)[:n]
        # (stable), so the emitted prefix matches sort-then-limit.
        sort_plan = None
        project_plan = None
        if isinstance(plan.child, p.Sort):
            sort_plan = plan.child
        elif (isinstance(plan.child, p.Project)
              and isinstance(plan.child.child, p.Sort)):
            sort_plan = plan.child.child
            project_plan = plan.child
        if sort_plan is not None:
            rows: List[Tuple[Any, ...]] = []
            for item in run_plan(sort_plan.child, ctx):
                if isinstance(item, LockRequest):
                    yield item
                else:
                    rows.append(item)
            key = cmp_to_key(_sort_comparator(sort_plan.keys, ctx))
            top = heapq.nsmallest(plan.limit + plan.offset, rows,
                                  key=key)[plan.offset:]
            for row in top:
                if project_plan is None:
                    yield row
                else:
                    yield tuple(eval_expr(e, row, ctx)
                                for e in project_plan.exprs)
            return
    skipped = 0
    emitted = 0
    for item in run_plan(plan.child, ctx):
        if isinstance(item, LockRequest):
            yield item
            continue
        if skipped < plan.offset:
            skipped += 1
            continue
        if plan.limit is not None and emitted >= plan.limit:
            return
        emitted += 1
        yield item


# -- top-level statement execution -----------------------------------------------


def execute_select(plan: p.SelectPlan, ctx: ExecContext) -> Generator:
    rows: List[Tuple[Any, ...]] = []
    for item in run_plan(plan.root, ctx):
        if isinstance(item, LockRequest):
            yield item
        else:
            rows.append(item)
    ctx.cost.rows_returned = len(rows)
    return ExecResult(columns=plan.column_names, rows=rows,
                      rowcount=len(rows), cost=ctx.cost)


def _run_dml_source(plan: p.Plan, ctx: ExecContext) -> Generator:
    """Run a single-table DML source plan, yielding (rid, row) items."""
    if isinstance(plan, p.SeqScan):
        yield from _seq_scan(plan, ctx, with_rids=True)
    elif isinstance(plan, p.IndexEqScan):
        yield from _index_eq_scan(plan, ctx, outer_row=(), with_rids=True)
    elif isinstance(plan, p.IndexRangeScan):
        yield from _index_range_scan(plan, ctx, with_rids=True)
    elif isinstance(plan, p.Filter):
        for item in _run_dml_source(plan.child, ctx):
            if isinstance(item, LockRequest):
                yield item
            else:
                rid, row = item
                if _truthy(eval_expr(plan.predicate, row, ctx)):
                    yield item
    else:
        raise SqlError(f"invalid DML source node {type(plan).__name__}")


def execute_insert(plan: p.InsertPlan, ctx: ExecContext) -> Generator:
    table = ctx.database.table(plan.table.name)
    yield from ctx.lock(ctx.table_resource(plan.table.name), LockMode.IX)
    inserted = 0
    for row_exprs in plan.rows:
        values = tuple(eval_expr(e, (), ctx) for e in row_exprs)
        rid = table.insert(values)
        # New rid: the X lock is granted instantly (no one else can hold it).
        yield from ctx.lock(ctx.row_resource(plan.table.name, rid), LockMode.X)
        after = table.get(rid)
        ctx.wal.append(ctx.txn.txn_id, RecordType.INSERT,
                       db=ctx.database.name, table=plan.table.name,
                       rid=rid, after=after)
        ctx.txn.undo.append(UndoEntry(ctx.database.name, plan.table.name,
                                      "insert", rid, None, after))
        ctx.mark_dirty(plan.table.name, rid, None)
        ctx.txn.wrote = True
        ctx.record_write(plan.table.name, table.pk_key(after)
                         if table.schema.primary_key else (rid,))
        ctx.touch([table.heap_page(rid)])
        ctx.touch(page for name in table.indexes
                  for page in table.index_pages(
                      name, table.index_key(table.schema.indexes[name], after)))
        inserted += 1
    ctx.cost.rows_returned = inserted
    return ExecResult(rowcount=inserted, cost=ctx.cost)


def execute_update(plan: p.UpdatePlan, ctx: ExecContext) -> Generator:
    table = ctx.database.table(plan.binding.table)
    targets: List[Tuple[int, Tuple[Any, ...]]] = []
    for item in _run_dml_source(plan.source, ctx):
        if isinstance(item, LockRequest):
            yield item
        else:
            targets.append(item)
    updated = 0
    for rid, row in targets:
        if table.get(rid) is None:
            continue
        new_row = list(row)
        for pos, expr in plan.assignments:
            new_row[pos] = eval_expr(expr, row, ctx)
        try:
            before, after = table.update(rid, tuple(new_row))
        except ConstraintError:
            raise
        ctx.wal.append(ctx.txn.txn_id, RecordType.UPDATE,
                       db=ctx.database.name, table=plan.binding.table,
                       rid=rid, before=before, after=after)
        ctx.txn.undo.append(UndoEntry(ctx.database.name, plan.binding.table,
                                      "update", rid, before, after))
        ctx.mark_dirty(plan.binding.table, rid, before)
        ctx.txn.wrote = True
        ctx.record_write(plan.binding.table, table.pk_key(after)
                         if table.schema.primary_key else (rid,))
        ctx.touch([table.heap_page(rid)])
        updated += 1
    ctx.cost.rows_returned = updated
    return ExecResult(rowcount=updated, cost=ctx.cost)


def execute_delete(plan: p.DeletePlan, ctx: ExecContext) -> Generator:
    table = ctx.database.table(plan.binding.table)
    targets: List[Tuple[int, Tuple[Any, ...]]] = []
    for item in _run_dml_source(plan.source, ctx):
        if isinstance(item, LockRequest):
            yield item
        else:
            targets.append(item)
    deleted = 0
    for rid, row in targets:
        if table.get(rid) is None:
            continue
        before = table.delete(rid)
        ctx.wal.append(ctx.txn.txn_id, RecordType.DELETE,
                       db=ctx.database.name, table=plan.binding.table,
                       rid=rid, before=before)
        ctx.txn.undo.append(UndoEntry(ctx.database.name, plan.binding.table,
                                      "delete", rid, before, None))
        ctx.mark_dirty(plan.binding.table, rid, before)
        ctx.txn.wrote = True
        ctx.record_write(plan.binding.table, table.pk_key(before)
                         if table.schema.primary_key else (rid,))
        ctx.touch([table.heap_page(rid)])
        deleted += 1
    ctx.cost.rows_returned = deleted
    return ExecResult(rowcount=deleted, cost=ctx.cost)
