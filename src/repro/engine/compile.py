"""Plan compilation: turn bound plans into Python closures.

Every statement the engine executes runs through a runner built here,
once per cached plan, so that no per-row work is spent re-dispatching on
plan-node or expression types:

* every bound expression compiles to a ``(row, params) -> value`` closure
  with SQL three-valued logic baked in (constant subtrees are folded at
  compile time);
* every plan node compiles to a closure producing the executor's
  generator protocol (yield :class:`LockRequest` on waits, yield row
  tuples otherwise), with per-row invariants — lock resources, primary
  key positions, the history/no-history decision — hoisted out of the
  loop;
* ``ORDER BY`` compiles to one stable sort pass per key, applied
  last-key-first, instead of a comparator that re-evaluates both sort
  expressions on every comparison; a slot key without NULLs sorts on an
  ``itemgetter``, its keys built in C.

Every operator has one implementation, over rows. Only scans come in
two kinds, chosen from the plan's shape alone (:func:`_batch_source`): a
``SeqScan`` or ``IndexRangeScan`` at slot offset zero reads
:class:`Batch` blocks, which a slot-keyed ``GROUP BY`` of simple
aggregates (TPC-W's BestSellers) deals into groups directly, a ``Sort``
takes whole, and every other consumer takes one row at a time
(:func:`_flatten_batches`). DML sources (which need rids), join inners
(non-zero offsets) and the child of an unfused ``Limit`` (which must stop
scanning where the limit is reached) scan one row at a time.

A range read is one pass per chunk of rids (:func:`_compile_fetch_batches`,
DESIGN §4x): one flat B+-tree walk gives the rids in key order
(``BPlusTree.rids``), each chunk's row locks are one
``LockManager.try_acquire_run`` call up to the first row that would
wait, and each run of rows on one heap page is one counted pool touch
(``BufferPool.access_run``).

What a runner must do — rows, lock acquisition order, buffer-pool page
touches, :class:`CostReport` counters, history records, errors — is
defined by the tree-walking interpreter kept as the test suite's
reference, ``tests/oracles/tree_executor.py``; the differential property
tests that hold the two together are listed in ``tests/oracles/README.md``.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, repeat
from operator import add, itemgetter, truediv
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.engine import planner as p
from repro.engine.executor import ExecContext, ExecResult
from repro.engine.locks import LockMode, LockRequest
from repro.engine.sqlparse import nodes as n
from repro.engine.transactions import UndoEntry
from repro.engine.types import like_match, sql_compare, sql_eq
from repro.engine.wal import RecordType
from repro.errors import SqlError

# A compiled expression: (row, params) -> value.
ExprFn = Callable[[Tuple[Any, ...], Tuple[Any, ...]], Any]
# A compiled plan node: (ctx, outer_row) -> generator of rows/LockRequests.
NodeFn = Callable[..., Generator]


# Rows per Batch. Batched subtrees are behavior-identical to row-at-a-time
# execution on every non-erroring statement; when a statement raises
# mid-scan the batch path may have scanned up to one batch further before
# the same error surfaces.
BATCH_SIZE = 256


class Batch:
    """A block of rows — scanned, or a grouped aggregate's groups — never
    mutated once emitted."""

    __slots__ = ("rows",)

    def __init__(self, rows: List[Tuple[Any, ...]]):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)


# -- expression compilation ---------------------------------------------------


def compile_expr(expr: n.Expr) -> ExprFn:
    """Compile a bound expression to a ``(row, params) -> value`` closure."""
    fn, _ = _compile_expr(expr)
    return fn


def _fold(fn: ExprFn, const: bool) -> Tuple[ExprFn, bool]:
    """Evaluate a constant subtree once; fall back on any failure.

    Folding must never change *when* an error surfaces, so a constant
    subtree that raises is left unfolded and raises at row time.
    """
    if not const:
        return fn, False
    try:
        value = fn((), ())
    except Exception:
        return fn, False
    return (lambda row, params: value), True


def _compile_expr(expr: n.Expr) -> Tuple[ExprFn, bool]:
    if isinstance(expr, n.Literal):
        value = expr.value
        return (lambda row, params: value), True
    if isinstance(expr, n.Param):
        index = expr.index
        def param_fn(row, params):
            try:
                return params[index]
            except IndexError:
                raise SqlError(
                    f"statement has parameter ${index} but only "
                    f"{len(params)} values were bound"
                ) from None
        return param_fn, False
    if isinstance(expr, (p.Slot, p.AggSlot)):
        index = expr.index
        return (lambda row, params: row[index]), False
    if isinstance(expr, n.BinaryOp):
        return _compile_binary(expr)
    if isinstance(expr, n.UnaryOp):
        operand, const = _compile_expr(expr.operand)
        if expr.op == "NOT":
            def not_fn(row, params):
                value = operand(row, params)
                return None if value is None else (not value)
            return _fold(not_fn, const)
        if expr.op == "NEG":
            def neg_fn(row, params):
                value = operand(row, params)
                return None if value is None else -value
            return _fold(neg_fn, const)
        raise SqlError(f"unknown unary op {expr.op}")
    if isinstance(expr, n.InList):
        value_fn, vconst = _compile_expr(expr.expr)
        compiled = [_compile_expr(i) for i in expr.items]
        item_fns = [fn for fn, _ in compiled]
        const = vconst and all(c for _, c in compiled)
        negated = expr.negated
        def in_fn(row, params):
            value = value_fn(row, params)
            if value is None:
                return None
            saw_null = False
            for item_fn in item_fns:
                verdict = sql_eq(value, item_fn(row, params))
                if verdict is None:
                    saw_null = True
                elif verdict:
                    return not negated
            if saw_null:
                return None
            return negated
        return _fold(in_fn, const)
    if isinstance(expr, n.Between):
        value_fn, c1 = _compile_expr(expr.expr)
        low_fn, c2 = _compile_expr(expr.low)
        high_fn, c3 = _compile_expr(expr.high)
        negated = expr.negated
        def between_fn(row, params):
            value = value_fn(row, params)
            lo_cmp = sql_compare(value, low_fn(row, params))
            hi_cmp = sql_compare(value, high_fn(row, params))
            if lo_cmp is None or hi_cmp is None:
                return None
            inside = lo_cmp >= 0 and hi_cmp <= 0
            return inside != negated
        return _fold(between_fn, c1 and c2 and c3)
    if isinstance(expr, n.IsNull):
        value_fn, const = _compile_expr(expr.expr)
        negated = expr.negated
        def isnull_fn(row, params):
            return (value_fn(row, params) is None) != negated
        return _fold(isnull_fn, const)
    raise SqlError(f"cannot compile {expr!r}")


def _compile_binary(expr: n.BinaryOp) -> Tuple[ExprFn, bool]:
    op = expr.op
    left_fn, lconst = _compile_expr(expr.left)
    right_fn, rconst = _compile_expr(expr.right)
    const = lconst and rconst
    if op == "AND":
        def and_fn(row, params):
            left = left_fn(row, params)
            if left is False:
                return False
            right = right_fn(row, params)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return bool(left) and bool(right)
        return _fold(and_fn, const)
    if op == "OR":
        def or_fn(row, params):
            left = left_fn(row, params)
            if left is True:
                return True
            right = right_fn(row, params)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return bool(left) or bool(right)
        return _fold(or_fn, const)
    if op == "=":
        def eq_fn(row, params):
            return sql_eq(left_fn(row, params), right_fn(row, params))
        return _fold(eq_fn, const)
    if op == "<>":
        def ne_fn(row, params):
            verdict = sql_eq(left_fn(row, params), right_fn(row, params))
            return None if verdict is None else not verdict
        return _fold(ne_fn, const)
    if op in ("<", "<=", ">", ">="):
        # Bake the comparison verdict in: one sql_compare, one test.
        if op == "<":
            test = lambda cmp: cmp < 0
        elif op == "<=":
            test = lambda cmp: cmp <= 0
        elif op == ">":
            test = lambda cmp: cmp > 0
        else:
            test = lambda cmp: cmp >= 0
        def cmp_fn(row, params):
            cmp = sql_compare(left_fn(row, params), right_fn(row, params))
            return None if cmp is None else test(cmp)
        return _fold(cmp_fn, const)
    if op == "LIKE":
        def like_fn(row, params):
            right = right_fn(row, params)
            if right is None:
                return None
            return like_match(left_fn(row, params), str(right))
        return _fold(like_fn, const)
    if op in ("+", "-", "*", "/"):
        if op == "+":
            arith = lambda a, b: a + b
        elif op == "-":
            arith = lambda a, b: a - b
        elif op == "*":
            arith = lambda a, b: a * b
        else:
            arith = lambda a, b: None if b == 0 else a / b
        def arith_fn(row, params):
            left = left_fn(row, params)
            right = right_fn(row, params)
            if left is None or right is None:
                return None
            return arith(left, right)
        return _fold(arith_fn, const)
    raise SqlError(f"unknown operator {op}")


def _truthy(value: Any) -> bool:
    # 0 and 0.0 compare equal to False, so they are excluded by value.
    return value is True or (value not in (None, False) and bool(value))


# -- plan-node compilation ----------------------------------------------------
# Every compiled node is a closure (ctx, outer_row=()) -> generator that
# follows the executor protocol. A point lock site has one shape,
#     if not try_acquire(txn_id, resource, mode):
#         yield from ctx.lock(resource, mode)
# — a grant that does not wait is one allocation-free call. A range read
# grants a chunk's row resources with one try_acquire_run (try_acquire
# on each in turn, up to the first that would wait) and sends only the
# row it stopped at through ctx.lock. Only a real wait pays for
# ExecContext.lock's sub-generator and LockRequest. Locks are taken in
# exactly the reference interpreter's order.


def _scan_lock_modes(exclusive: bool) -> Tuple[LockMode, LockMode]:
    if exclusive:
        return LockMode.IX, LockMode.X
    return LockMode.IS, LockMode.S


def _compile_seq_scan(plan: p.SeqScan, with_rids: bool) -> NodeFn:
    table_name = plan.binding.table
    lock_exclusive = plan.lock_exclusive
    table_res = ("tbl", plan.db, table_name)
    pk_positions = plan.binding.schema.pk_positions()
    table_mode = LockMode.X if lock_exclusive else LockMode.S

    def run(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()) -> Generator:
        table = ctx.database.table(table_name)
        cost = ctx.cost
        nonlocking = ctx.nonlocking_reads and not lock_exclusive
        if not nonlocking:
            if not ctx.locks.try_acquire(ctx.txn.txn_id, table_res,
                                         table_mode):
                yield from ctx.lock(table_res, table_mode)
        ctx.touch(table.heap_pages())
        history = ctx.history
        committed_view = ctx.committed_view
        for rid, row in list(table.scan()):
            if nonlocking:
                row = committed_view(table_name, rid, row)
                if row is None:
                    continue
            cost.rows_scanned += 1
            if history is not None:
                key = (tuple(row[i] for i in pk_positions)
                       if pk_positions else (rid,))
                history.record_read(ctx.txn.txn_id,
                                    (plan.db, table_name, key))
            yield (rid, row) if with_rids else row

    return run


def _compile_fetch_loop(plan, with_rids: bool):
    """Shared per-rid fetch: lock, re-check, charge page, emit.

    Returns a generator function ``fetch(ctx, table, rids)`` mirroring the
    interpreter's ``_fetch_row`` applied to each rid in order.
    """
    table_name = plan.binding.table
    row_mode = _scan_lock_modes(plan.lock_exclusive)[1]
    pk_positions = plan.binding.schema.pk_positions()
    row_res_prefix = ("row", plan.db, table_name)
    exclusive = row_mode is LockMode.X

    def fetch(ctx: ExecContext, table, rids) -> Generator:
        cost = ctx.cost
        try_acquire = ctx.locks.try_acquire
        txn_id = ctx.txn.txn_id
        access = ctx.pool.access
        history = ctx.history
        nonlocking_s = ctx.nonlocking_reads and not exclusive
        get = table.get
        heap_page = table.heap_page
        for rid in rids:
            row = get(rid)
            if row is None:
                continue
            if nonlocking_s:
                row = ctx.committed_view(table_name, rid, row)
                if row is None:
                    continue
            else:
                resource = row_res_prefix + (rid,)
                if not try_acquire(txn_id, resource, row_mode):
                    yield from ctx.lock(resource, row_mode)
                    row = get(rid)
                    if row is None:
                        continue  # deleted while we waited for the lock
            if access(heap_page(rid)):
                cost.cache_hits += 1
            else:
                cost.cache_misses += 1
            cost.rows_scanned += 1
            if history is not None:
                key = (tuple(row[i] for i in pk_positions)
                       if pk_positions else (rid,))
                history.record_read(txn_id, (plan.db, table_name, key))
            yield (rid, row) if with_rids else row

    return fetch


def _compile_index_eq_scan(plan: p.IndexEqScan, with_rids: bool) -> NodeFn:
    table_name = plan.binding.table
    index_name = plan.index.name
    key_fns = [compile_expr(e) for e in plan.key_exprs]
    full_key = len(plan.key_exprs) == len(plan.index.columns)
    table_res = ("tbl", plan.db, table_name)
    table_mode = _scan_lock_modes(plan.lock_exclusive)[0]
    lock_exclusive = plan.lock_exclusive
    fetch = _compile_fetch_loop(plan, with_rids)

    single_key = len(key_fns) == 1
    key_fn0 = key_fns[0] if key_fns else None

    def run(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()) -> Generator:
        table = ctx.database.table(table_name)
        if not (ctx.nonlocking_reads and not lock_exclusive):
            if not ctx.locks.try_acquire(ctx.txn.txn_id, table_res,
                                         table_mode):
                yield from ctx.lock(table_res, table_mode)
        params = ctx.params
        if single_key:
            key = (key_fn0(outer_row, params),)
        else:
            key = tuple(fn(outer_row, params) for fn in key_fns)
        index = table.indexes[index_name]
        cost = ctx.cost
        access = ctx.pool.access
        for page in table.index_pages(index_name, key):
            if access(page):
                cost.cache_hits += 1
            else:
                cost.cache_misses += 1
        if full_key:
            rids = index.search(key)
            rids.sort()
        else:
            klen = len(key)
            rids = index.rids(key, True, lambda found: found[:klen] != key)
        yield from fetch(ctx, table, rids)

    return run


def _compile_index_range_scan(plan: p.IndexRangeScan, with_rids: bool,
                              batched: bool = False) -> NodeFn:
    table_name = plan.binding.table
    index_name = plan.index.name
    lo_fn = compile_expr(plan.lo) if plan.lo is not None else None
    hi_fn = compile_expr(plan.hi) if plan.hi is not None else None
    lo_inclusive, hi_inclusive = plan.lo_inclusive, plan.hi_inclusive
    single_column = len(plan.index.columns) == 1
    table_res = ("tbl", plan.db, table_name)
    table_mode = _scan_lock_modes(plan.lock_exclusive)[0]
    lock_exclusive = plan.lock_exclusive
    db_name = plan.db
    if batched:
        fetch = _compile_fetch_batches(plan)
    else:
        fetch = _compile_fetch_loop(plan, with_rids)

    def run(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()) -> Generator:
        table = ctx.database.table(table_name)
        if not (ctx.nonlocking_reads and not lock_exclusive):
            if not ctx.locks.try_acquire(ctx.txn.txn_id, table_res,
                                         table_mode):
                yield from ctx.lock(table_res, table_mode)
        params = ctx.params
        lo = (lo_fn(outer_row, params),) if lo_fn is not None else None
        hi = (hi_fn(outer_row, params),) if hi_fn is not None else None
        index = table.indexes[index_name]
        probe_key = lo if lo is not None else hi
        ctx.touch(table.index_pages(index_name, probe_key or ()))
        if hi is None:
            past = None
        elif single_column:
            past = ((lambda key: key > hi) if hi_inclusive
                    else (lambda key: key >= hi))
        else:
            # A bound on the first column of a composite key, compared
            # the SQL way (a NULL bound ends the range at once).
            hi0 = hi[0]

            def past(key):
                cmp = sql_compare(key[0], hi0)
                return cmp is None or cmp > 0 or (cmp == 0
                                                  and not hi_inclusive)
        if single_column:
            matches = index.rids(lo, lo_inclusive, past)
        else:
            # As the reference walks it: from the one-column bound on.
            matches = index.rids(lo, True, past)
        extra_leaves = max(0, len(matches)
                           // max(1, ctx.database.config.rows_per_page))
        ctx.touch((db_name, table_name, "ix", index_name, "leafrange", i)
                  for i in range(extra_leaves))
        yield from fetch(ctx, table, matches)

    return run


def _compile_filter(plan: p.Filter, with_rids: bool,
                    batch: bool) -> NodeFn:
    child = _compile_node(plan.child, with_rids, batch)
    pred = compile_expr(plan.predicate)

    if with_rids:
        def run(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()):
            params = ctx.params
            for item in child(ctx, outer_row):
                if isinstance(item, LockRequest):
                    yield item
                elif _truthy(pred(item[1], params)):
                    yield item
    else:
        def run(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()):
            params = ctx.params
            for item in child(ctx, outer_row):
                if isinstance(item, LockRequest):
                    yield item
                elif _truthy(pred(item, params)):
                    yield item

    return run


def _compile_projector(exprs: List[n.Expr]) -> ExprFn:
    """Compile a SELECT list to one ``(row, params) -> tuple`` closure.

    Pure-slot projections — the common case for every TPC-W template —
    become an ``itemgetter``; everything else evaluates per-expression
    closures.
    """
    if exprs and all(isinstance(e, (p.Slot, p.AggSlot)) for e in exprs):
        indices = [e.index for e in exprs]
        if len(indices) == 1:
            index = indices[0]
            return lambda row, params: (row[index],)
        getter = itemgetter(*indices)
        return lambda row, params: getter(row)
    expr_fns = [compile_expr(e) for e in exprs]
    return lambda row, params: tuple(fn(row, params) for fn in expr_fns)


def _compile_project(plan: p.Project, batch: bool) -> NodeFn:
    child = _compile_node(plan.child, False, batch)
    project = _compile_projector(plan.exprs)

    def run(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()):
        params = ctx.params
        for item in child(ctx, outer_row):
            if isinstance(item, LockRequest):
                yield item
            else:
                yield project(item, params)

    return run


def _compile_index_lookup_join(plan: p.IndexLookupJoin,
                               batch: bool) -> NodeFn:
    outer = _compile_node(plan.outer, False, batch)
    inner_plan = plan.inner
    if isinstance(inner_plan, p.IndexEqScan):
        inner = _compile_index_eq_scan(inner_plan, with_rids=False)
    elif isinstance(inner_plan, p.IndexRangeScan):
        inner = _compile_index_range_scan(inner_plan, with_rids=False)
    else:
        raise SqlError("index lookup join requires an index scan inner")

    def run(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()):
        for item in outer(ctx, outer_row):
            if isinstance(item, LockRequest):
                yield item
                continue
            for inner_item in inner(ctx, item):
                if isinstance(inner_item, LockRequest):
                    yield inner_item
                else:
                    yield item + inner_item

    return run


def _compile_hash_join(plan: p.HashJoin, batch: bool) -> NodeFn:
    outer = _compile_node(plan.outer, False, batch)
    inner = _compile_node(plan.inner, False, batch)
    outer_key_fns = [compile_expr(e) for e in plan.outer_keys]
    inner_key_fns = [compile_expr(e) for e in plan.inner_keys]
    pad = (None,) * plan.inner_offset

    def run(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()):
        params = ctx.params
        build = {}
        for item in inner(ctx, outer_row):
            if isinstance(item, LockRequest):
                yield item
                continue
            padded = pad + item
            key = tuple(fn(padded, params) for fn in inner_key_fns)
            if any(v is None for v in key):
                continue
            build.setdefault(key, []).append(item)
        for item in outer(ctx, outer_row):
            if isinstance(item, LockRequest):
                yield item
                continue
            key = tuple(fn(item, params) for fn in outer_key_fns)
            if any(v is None for v in key):
                continue
            for inner_row in build.get(key, ()):
                yield item + inner_row

    return run


def _compile_cross_join(plan: p.CrossJoin, batch: bool) -> NodeFn:
    outer = _compile_node(plan.outer, False, batch)
    inner = _compile_node(plan.inner, False, batch)

    def run(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()):
        inner_rows = []
        for item in inner(ctx, outer_row):
            if isinstance(item, LockRequest):
                yield item
            else:
                inner_rows.append(item)
        for item in outer(ctx, outer_row):
            if isinstance(item, LockRequest):
                yield item
                continue
            for inner_row in inner_rows:
                yield item + inner_row

    return run


# Aggregate accumulators compile to (make, update, result) closure
# triples; group state is a list of per-aggregate state lists.


def _compile_agg(item: p.AggItem):
    if item.star:
        def make_star():
            return [0]
        def update_star(state, row, params):
            state[0] += 1
        def result_star(state):
            return state[0]
        return make_star, update_star, result_star

    arg_fn = compile_expr(item.arg)
    distinct = item.distinct
    func = item.func

    if func == "COUNT":
        def make():
            return [0, set() if distinct else None]
        def update(state, row, params):
            value = arg_fn(row, params)
            if value is None:
                return
            if distinct:
                if value in state[1]:
                    return
                state[1].add(value)
            state[0] += 1
        def result(state):
            return state[0]
        return make, update, result

    if func in ("SUM", "AVG"):
        average = func == "AVG"
        def make():
            # Integer zero: SUM over INTEGER columns stays an int.
            return [0, 0, set() if distinct else None]
        def update(state, row, params):
            value = arg_fn(row, params)
            if value is None:
                return
            if distinct:
                if value in state[2]:
                    return
                state[2].add(value)
            state[0] += 1
            state[1] += value
        def result(state):
            if not state[0]:
                return None
            return state[1] / state[0] if average else state[1]
        return make, update, result

    minimum = func == "MIN"
    def make_best():
        return [None, set() if distinct else None]
    def update_best(state, row, params):
        value = arg_fn(row, params)
        if value is None:
            return
        if distinct:
            if value in state[1]:
                return
            state[1].add(value)
        best = state[0]
        if best is None or (value < best if minimum else value > best):
            state[0] = value
    def result_best(state):
        return state[0]
    return make_best, update_best, result_best


def _compile_aggregate(plan: p.Aggregate, batch: bool) -> NodeFn:
    child = _compile_node(plan.child, False, batch)
    group_fns = [compile_expr(g) for g in plan.group_exprs]
    specs = [_compile_agg(a) for a in plan.aggs]
    makes = [s[0] for s in specs]
    updates = [s[1] for s in specs]
    results = [s[2] for s in specs]
    global_agg = not plan.group_exprs

    def run(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()):
        params = ctx.params
        groups = {}
        order = []
        for item in child(ctx, outer_row):
            if isinstance(item, LockRequest):
                yield item
                continue
            key = tuple(fn(item, params) for fn in group_fns)
            states = groups.get(key)
            if states is None:
                states = groups[key] = [make() for make in makes]
                order.append(key)
            for update, state in zip(updates, states):
                update(state, item, params)
        if not groups and global_agg:
            groups[()] = [make() for make in makes]
            order.append(())
        for key in order:
            states = groups[key]
            yield key + tuple(result(state)
                              for result, state in zip(results, states))

    return run


def _compile_sorted_rows(plan: p.Sort, batch: bool) -> NodeFn:
    """``sorted_rows(ctx, outer_row)``: a generator that yields the child's
    lock waits and *returns* its rows as a list in ORDER BY order.

    A child that produces Batches (:func:`_batch_source`) hands them over
    whole."""
    source = _batch_source(plan.child) if batch else None
    child = source or _compile_row_node(plan.child, False, batch)
    key_specs = [(itemgetter(e.index) if isinstance(e, (p.Slot, p.AggSlot))
                  else None, compile_expr(e), descending)
                 for e, descending in plan.keys]

    def sorted_rows(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()):
        params = ctx.params
        rows = []
        append, extend = rows.append, rows.extend
        for item in child(ctx, outer_row):
            if isinstance(item, LockRequest):
                yield item
            elif source is None:
                append(item)
            else:
                extend(item.rows)
        # One stable pass per key, applied last-key-first, gives the
        # lexicographic multi-key order of the interpreter's comparator.
        # A slot key without NULLs sorts on the column itself, its key
        # built in C. Otherwise NULLs map to (False, 0) and values to
        # (True, value), so NULLs sort before every value ascending and
        # after every value descending (reverse=True keeps the tie order,
        # matching cmp_to_key's treatment of NULL pairs).
        for getter, key_fn, descending in reversed(key_specs):
            if getter is not None and None not in map(getter, rows):
                rows.sort(key=getter, reverse=descending)
                continue

            def sort_key(row, fn=key_fn):
                value = fn(row, params)
                if value is None:
                    return (False, 0)
                return (True, value)
            rows.sort(key=sort_key, reverse=descending)
        return rows

    return sorted_rows


def _compile_sort(plan: p.Sort, batch: bool) -> NodeFn:
    sorted_rows = _compile_sorted_rows(plan, batch)

    def run(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()):
        yield from (yield from sorted_rows(ctx, outer_row))

    return run


def _compile_topn(sort_plan: p.Sort, project: Optional[ExprFn],
                  limit: int, offset: int, batch: bool) -> NodeFn:
    """Fused ``Limit(Sort)``: the sort, sliced, projecting only the rows
    that survive the slice.

    A full sort, not a bounded heap: the key-tuple passes compare in C,
    while a heap over one composite key needs a Python-level wrapper to
    invert its descending parts and measures no faster even at 1 800
    rows in, 10 out.
    """
    sorted_rows = _compile_sorted_rows(sort_plan, batch)
    end = offset + limit

    def run(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()):
        top = (yield from sorted_rows(ctx, outer_row))[offset:end]
        if project is None:
            yield from top
        else:
            params = ctx.params
            for row in top:
                yield project(row, params)

    return run


def _compile_limit(plan: p.Limit, batch: bool) -> NodeFn:
    limit, offset = plan.limit, plan.offset
    if limit is not None:
        if isinstance(plan.child, p.Sort):
            return _compile_topn(plan.child, None, limit, offset, batch)
        if (isinstance(plan.child, p.Project)
                and isinstance(plan.child.child, p.Sort)):
            projector = _compile_projector(plan.child.exprs)
            return _compile_topn(plan.child.child, projector, limit,
                                 offset, batch)
        # An unfused LIMIT stops pulling once the cap is reached, and
        # rows_scanned must reflect exactly where it stopped. A batched
        # child scans a batch at a time, so its count would run ahead —
        # keep the child row-at-a-time.
        batch = False
    child = _compile_node(plan.child, False, batch)

    def run(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()):
        skipped = 0
        emitted = 0
        for item in child(ctx, outer_row):
            if isinstance(item, LockRequest):
                yield item
                continue
            if skipped < offset:
                skipped += 1
                continue
            if limit is not None and emitted >= limit:
                return
            emitted += 1
            yield item

    return run


def _compile_distinct(plan: p.Distinct, batch: bool) -> NodeFn:
    child = _compile_node(plan.child, False, batch)

    def run(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()):
        seen = set()
        for item in child(ctx, outer_row):
            if isinstance(item, LockRequest):
                yield item
            elif item not in seen:
                seen.add(item)
                yield item

    return run


def _compile_node(plan: p.Plan, with_rids: bool,
                  batch: bool) -> NodeFn:
    """Compile one read-plan node (``with_rids`` for DML source trees)."""
    if batch and not with_rids:
        source = _batch_source(plan)
        if source is not None:
            return _flatten_batches(source)
    return _compile_row_node(plan, with_rids, batch)


def _compile_row_node(plan: p.Plan, with_rids: bool,
                      batch: bool) -> NodeFn:
    """The node's own row runner, for a node that is not a batch source
    (its subtree may still run batched)."""
    if isinstance(plan, p.SeqScan):
        return _compile_seq_scan(plan, with_rids)
    if isinstance(plan, p.IndexEqScan):
        return _compile_index_eq_scan(plan, with_rids)
    if isinstance(plan, p.IndexRangeScan):
        return _compile_index_range_scan(plan, with_rids)
    if isinstance(plan, p.Filter):
        return _compile_filter(plan, with_rids, batch)
    if with_rids:
        raise SqlError(f"invalid DML source node {type(plan).__name__}")
    if isinstance(plan, p.IndexLookupJoin):
        return _compile_index_lookup_join(plan, batch)
    if isinstance(plan, p.HashJoin):
        return _compile_hash_join(plan, batch)
    if isinstance(plan, p.CrossJoin):
        return _compile_cross_join(plan, batch)
    if isinstance(plan, p.Project):
        return _compile_project(plan, batch)
    if isinstance(plan, p.Aggregate):
        return _compile_aggregate(plan, batch)
    if isinstance(plan, p.Sort):
        return _compile_sort(plan, batch)
    if isinstance(plan, p.Limit):
        return _compile_limit(plan, batch)
    if isinstance(plan, p.Distinct):
        return _compile_distinct(plan, batch)
    raise SqlError(f"cannot compile plan node {type(plan).__name__}")


# -- batched scans ------------------------------------------------------------
# A SeqScan or IndexRangeScan at slot offset zero, read for a row consumer
# or a grouped aggregate, moves Batch blocks instead of single rows: one
# generator resume per block. Everything observable (lock acquisition
# order, buffer-pool touches, cost counters, history records) is kept
# identical to the row-at-a-time scans.


def _gather(items) -> Generator:
    """Re-block a row stream into Batches. Every row gathered so far goes
    out before a lock request, as it would from the row stream itself."""
    buf: List[Tuple[Any, ...]] = []
    for item in items:
        if isinstance(item, LockRequest):
            if buf:
                yield Batch(buf)
                buf = []
            yield item
            continue
        buf.append(item)
        if len(buf) >= BATCH_SIZE:
            yield Batch(buf)
            buf = []
    if buf:
        yield Batch(buf)


def _compile_seq_scan_batches(plan: p.SeqScan) -> NodeFn:
    table_name = plan.binding.table
    lock_exclusive = plan.lock_exclusive
    table_res = ("tbl", plan.db, table_name)
    table_mode = LockMode.X if lock_exclusive else LockMode.S
    row_scan = _compile_seq_scan(plan, with_rids=False)

    def run(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()) -> Generator:
        if ctx.history is not None or (ctx.nonlocking_reads
                                       and not lock_exclusive):
            # Per-row work (history records, committed views): the row
            # scan's loop, its rows gathered into batches.
            yield from _gather(row_scan(ctx, outer_row))
            return
        table = ctx.database.table(table_name)
        if not ctx.locks.try_acquire(ctx.txn.txn_id, table_res, table_mode):
            yield from ctx.lock(table_res, table_mode)
        ctx.touch(table.heap_pages())
        # The table lock covers every row and nothing is recorded per
        # row, so the heap is sliced wholesale.
        rows = table.scan_rows()
        ctx.cost.rows_scanned += len(rows)
        for start in range(0, len(rows), BATCH_SIZE):
            yield Batch(rows[start:start + BATCH_SIZE])

    return run


def _compile_fetch_batches(plan):
    """The range read: :func:`_compile_fetch_loop`'s per-rid sequence —
    lock, re-check, charge the heap page, count, emit — done one chunk of
    rids at a time (DESIGN §4x).

    A chunk fills the current Batch up to ``BATCH_SIZE`` rows: its rows
    are read, their row locks granted in one
    :meth:`~repro.engine.locks.LockManager.try_acquire_run` call up to
    the first that would wait, and each run of granted rids on one heap
    page is one counted pool touch. On a wait the rows gathered so far go
    out first; the waiting row is re-read after the grant, and the scan
    goes on from the next rid with fresh reads. History records and
    non-locking reads keep the row loop's per-row work.
    """
    table_name = plan.binding.table
    row_mode = _scan_lock_modes(plan.lock_exclusive)[1]
    row_res_prefix = ("row", plan.db, table_name)
    exclusive = row_mode is LockMode.X
    row_fetch = _compile_fetch_loop(plan, with_rids=False)
    row_resource = row_res_prefix.__add__

    def fetch(ctx: ExecContext, table, rids) -> Generator:
        if ctx.history is not None or (ctx.nonlocking_reads
                                       and not exclusive):
            yield from _gather(row_fetch(ctx, table, rids))
            return
        cost = ctx.cost
        grant = ctx.locks.try_acquire_run
        txn_id = ctx.txn.txn_id
        touch_runs = ctx.touch_runs
        page_runs = table.heap_page_runs
        get = table.get
        get_many = table.get_many
        buf: List[Tuple[Any, ...]] = []
        pos = 0
        total = len(rids)
        while pos < total:
            chunk = rids[pos:pos + BATCH_SIZE - len(buf)]
            next_pos = pos + len(chunk)
            rows = get_many(chunk)
            if None in rows:
                # Deleted rows take no lock and touch no page.
                live = [rid for rid, row in zip(chunk, rows)
                        if row is not None]
                rows = [row for row in rows if row is not None]
            else:
                live = chunk
            granted = grant(txn_id, map(row_resource, zip(live)), row_mode)
            if granted:
                touch_runs(page_runs(live[:granted]))
                cost.rows_scanned += granted
                buf += rows[:granted]
            if granted < len(live):
                # A real wait, and other transactions run while it lasts.
                if buf:
                    yield Batch(buf)
                    buf = []
                rid = live[granted]
                yield from ctx.lock(row_res_prefix + (rid,), row_mode)
                row = get(rid)
                if row is not None:   # not deleted while we waited
                    touch_runs(page_runs((rid,)))
                    cost.rows_scanned += 1
                    buf.append(row)
                next_pos = pos + chunk.index(rid) + 1
            pos = next_pos
            if len(buf) >= BATCH_SIZE:
                yield Batch(buf)
                buf = []
        if buf:
            yield Batch(buf)

    return fetch


def _batch_source(plan: p.Plan) -> Optional[NodeFn]:
    """The Batch producer for a ``SeqScan`` or ``IndexRangeScan`` at slot
    offset zero (whose slot indexes are its column positions) or a
    grouped aggregate over one (:func:`_compile_grouped_batches`), or
    None for any other node."""
    if isinstance(plan, p.SeqScan) and plan.binding.offset == 0:
        return _compile_seq_scan_batches(plan)
    if isinstance(plan, p.IndexRangeScan) and plan.binding.offset == 0:
        return _compile_index_range_scan(plan, False, batched=True)
    if isinstance(plan, p.Aggregate):
        return _compile_grouped_batches(plan)
    return None


def _flatten_batches(child: NodeFn) -> NodeFn:
    """Adapt a batch producer to the row protocol for row consumers."""

    def run(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()):
        for item in child(ctx, outer_row):
            if isinstance(item, LockRequest):
                yield item
            else:
                yield from item.rows

    return run


# Simple aggregates — COUNT(*), and COUNT / SUM / AVG / MIN / MAX over a
# bare column — as (kind, column) pairs with flat state lists.

_AGG_STAR, _AGG_COUNT, _AGG_SUM, _AGG_AVG, _AGG_MIN, _AGG_MAX = range(6)


def _simple_agg_spec(item: p.AggItem):
    if item.star:
        return (_AGG_STAR, -1)
    if type(item.arg) is not p.Slot:
        return None
    index = item.arg.index
    # DISTINCT is a no-op for MIN/MAX; it changes COUNT/SUM/AVG.
    if item.func == "MIN":
        return (_AGG_MIN, index)
    if item.func == "MAX":
        return (_AGG_MAX, index)
    if item.distinct:
        return None
    if item.func == "COUNT":
        return (_AGG_COUNT, index)
    if item.func == "SUM":
        return (_AGG_SUM, index)
    if item.func == "AVG":
        return (_AGG_AVG, index)
    return None


def _grouped_column(kind: int, index: int,
                    groups: List[List[Tuple[Any, ...]]]) -> List[Any]:
    """One simple aggregate's value for every group, from each group's
    rows: the value the row aggregate's state reaches on them in order
    (``reduce(add, values, 0)`` is its left-to-right sum from integer
    zero). Each per-group step is a C builtin mapped over the groups."""
    if kind == _AGG_STAR:
        return list(map(len, groups))
    getter = itemgetter(index)
    if None in map(getter, chain.from_iterable(groups)):
        # NULLs are skipped; a group left with no value counts 0 and
        # aggregates to NULL otherwise.
        groups = [[row for row in group if row[index] is not None]
                  for group in groups]
        if kind != _AGG_COUNT and not all(groups):
            values = iter(_grouped_column(kind, index,
                                          [group for group in groups
                                           if group]))
            return [next(values) if group else None for group in groups]
    if kind == _AGG_COUNT:
        return list(map(len, groups))
    columns = map(map, repeat(getter), groups)
    if kind == _AGG_SUM:
        return list(map(reduce, repeat(add), columns, repeat(0)))
    if kind == _AGG_AVG:
        return list(map(truediv, map(reduce, repeat(add), columns,
                                     repeat(0)), map(len, groups)))
    return list(map(min if kind == _AGG_MIN else max, columns))


def _compile_grouped_batches(plan: p.Aggregate) -> Optional[NodeFn]:
    """A slot-keyed ``GROUP BY`` of simple aggregates over a batched scan
    (TPC-W's BestSellers): rows are dealt into their groups in one loop,
    each aggregate is computed per group from the group's rows, and the
    groups go out as one Batch in first-seen order. None for every other
    aggregate, which runs the row aggregate."""
    specs = [_simple_agg_spec(a) for a in plan.aggs]
    if (not plan.group_exprs or any(s is None for s in specs)
            or any(type(g) is not p.Slot for g in plan.group_exprs)):
        return None
    child = _batch_source(plan.child)
    if child is None:
        return None
    single = len(plan.group_exprs) == 1
    key_of = itemgetter(*[g.index for g in plan.group_exprs])

    def run_grouped(ctx: ExecContext, outer_row: Tuple[Any, ...] = ()):
        groups = {}
        get = groups.get
        for item in child(ctx):
            if isinstance(item, LockRequest):
                yield item
                continue
            rows = item.rows
            for key, row in zip(map(key_of, rows), rows):
                members = get(key)
                if members is None:
                    groups[key] = [row]
                else:
                    members.append(row)
        if groups:
            members = list(groups.values())
            columns = [_grouped_column(kind, index, members)
                       for kind, index in specs]
            if single:
                yield Batch(list(zip(groups, *columns)))
            else:
                # With no aggregates a group's row is its key alone.
                yield Batch(list(map(add, groups, zip(*columns) if columns
                                     else repeat(()))))

    return run_grouped


# -- top-level statements -----------------------------------------------------


def _compile_select(plan: p.SelectPlan) -> Callable[[ExecContext],
                                                    Generator]:
    column_names = plan.column_names
    if isinstance(plan.root, p.Project):
        # A Project root fuses its projector into the collection loop —
        # one generator layer fewer on every SELECT.
        project = _compile_projector(plan.root.exprs)
        child = _compile_node(plan.root.child, with_rids=False, batch=True)

        def run_project(ctx: ExecContext) -> Generator:
            params = ctx.params
            rows = []
            append = rows.append
            for item in child(ctx):
                if isinstance(item, LockRequest):
                    yield item
                else:
                    append(project(item, params))
            ctx.cost.rows_returned = len(rows)
            return ExecResult(columns=column_names, rows=rows,
                              rowcount=len(rows), cost=ctx.cost)

        return run_project

    root = _compile_node(plan.root, with_rids=False, batch=True)

    def run(ctx: ExecContext) -> Generator:
        rows = []
        append = rows.append
        for item in root(ctx):
            if isinstance(item, LockRequest):
                yield item
            else:
                append(item)
        ctx.cost.rows_returned = len(rows)
        return ExecResult(columns=column_names, rows=rows,
                          rowcount=len(rows), cost=ctx.cost)

    return run


def _compile_insert(plan: p.InsertPlan) -> Callable[[ExecContext], Generator]:
    table_name = plan.table.name
    table_res = ("tbl", plan.db, table_name)
    row_res_prefix = ("row", plan.db, table_name)
    row_fns = [[compile_expr(e) for e in row_exprs]
               for row_exprs in plan.rows]
    pk_positions = plan.table.pk_positions()
    db_name = plan.db

    def run(ctx: ExecContext) -> Generator:
        table = ctx.database.table(table_name)
        txn = ctx.txn
        try_acquire = ctx.locks.try_acquire
        if not try_acquire(txn.txn_id, table_res, LockMode.IX):
            yield from ctx.lock(table_res, LockMode.IX)
        params = ctx.params
        inserted = 0
        for fns in row_fns:
            values = tuple(fn((), params) for fn in fns)
            rid = table.insert(values)
            row_res = row_res_prefix + (rid,)
            if not try_acquire(txn.txn_id, row_res, LockMode.X):
                yield from ctx.lock(row_res, LockMode.X)
            after = table.get(rid)
            ctx.wal.append(txn.txn_id, RecordType.INSERT, db=db_name,
                           table=table_name, rid=rid, after=after)
            txn.undo.append(UndoEntry(db_name, table_name, "insert",
                                      rid, None, after))
            ctx.mark_dirty(table_name, rid, None)
            txn.wrote = True
            if ctx.history is not None:
                key = (tuple(after[i] for i in pk_positions)
                       if pk_positions else (rid,))
                ctx.history.record_write(txn.txn_id,
                                         (db_name, table_name, key))
            ctx.touch([table.heap_page(rid)])
            ctx.touch(page for name in table.indexes
                      for page in table.index_pages(
                          name, table.index_key(table.schema.indexes[name],
                                                after)))
            inserted += 1
        ctx.cost.rows_returned = inserted
        return ExecResult(rowcount=inserted, cost=ctx.cost)

    return run


def _compile_update(plan: p.UpdatePlan) -> Callable[[ExecContext],
                                                    Generator]:
    table_name = plan.binding.table
    source = _compile_node(plan.source, with_rids=True, batch=False)
    assignment_fns = [(pos, compile_expr(expr))
                      for pos, expr in plan.assignments]
    pk_positions = plan.binding.schema.pk_positions()
    db_name = plan.db
    schema = plan.binding.schema
    # Index maintenance and PK checks hoisted to compile time: only
    # indexes whose key overlaps the assigned positions can move, and
    # the duplicate-PK probe is needed only when the PK is assigned.
    positions = tuple(sorted(set(pos for pos, _ in plan.assignments)))
    touched_indexes = schema.indexes_touching(positions)
    pk_affected = bool(set(positions) & set(pk_positions))
    # Assignments evaluate in statement order but coerce in position
    # order, matching the full-row path's error sequencing.
    item_order = sorted(range(len(assignment_fns)),
                        key=lambda i: assignment_fns[i][0])

    def run(ctx: ExecContext) -> Generator:
        table = ctx.database.table(table_name)
        targets = []
        for item in source(ctx):
            if isinstance(item, LockRequest):
                yield item
            else:
                targets.append(item)
        params = ctx.params
        txn = ctx.txn
        history = ctx.history
        undo_append = txn.undo.append
        updated = 0
        # WAL records are buffered per statement and landed in one batch
        # append: the loop below never yields, so no other transaction's
        # records can interleave, and the finally guarantees records for
        # rows already changed survive a mid-statement error.
        wal_entries = []
        try:
            for rid, row in targets:
                if table.get(rid) is None:
                    continue
                values = [fn(row, params) for _, fn in assignment_fns]
                items = [(assignment_fns[i][0], values[i])
                         for i in item_order]
                before, after = table.update_columns(
                    rid, items, touched_indexes, pk_affected)
                wal_entries.append((db_name, table_name, rid, before,
                                    after))
                undo_append(UndoEntry(db_name, table_name, "update",
                                      rid, before, after))
                ctx.mark_dirty(table_name, rid, before)
                txn.wrote = True
                if history is not None:
                    key = (tuple(after[i] for i in pk_positions)
                           if pk_positions else (rid,))
                    history.record_write(txn.txn_id,
                                         (db_name, table_name, key))
                ctx.touch([table.heap_page(rid)])
                updated += 1
        finally:
            if wal_entries:
                ctx.wal.append_batch(txn.txn_id, RecordType.UPDATE,
                                     wal_entries)
        ctx.cost.rows_returned = updated
        return ExecResult(rowcount=updated, cost=ctx.cost)

    return run


def _compile_delete(plan: p.DeletePlan) -> Callable[[ExecContext],
                                                    Generator]:
    table_name = plan.binding.table
    source = _compile_node(plan.source, with_rids=True, batch=False)
    pk_positions = plan.binding.schema.pk_positions()
    db_name = plan.db

    def run(ctx: ExecContext) -> Generator:
        table = ctx.database.table(table_name)
        targets = []
        for item in source(ctx):
            if isinstance(item, LockRequest):
                yield item
            else:
                targets.append(item)
        txn = ctx.txn
        history = ctx.history
        undo_append = txn.undo.append
        deleted = 0
        wal_entries = []
        try:
            for rid, row in targets:
                if table.get(rid) is None:
                    continue
                before = table.delete(rid)
                wal_entries.append((db_name, table_name, rid, before,
                                    None))
                undo_append(UndoEntry(db_name, table_name, "delete",
                                      rid, before, None))
                ctx.mark_dirty(table_name, rid, before)
                txn.wrote = True
                if history is not None:
                    key = (tuple(before[i] for i in pk_positions)
                           if pk_positions else (rid,))
                    history.record_write(txn.txn_id,
                                         (db_name, table_name, key))
                ctx.touch([table.heap_page(rid)])
                deleted += 1
        finally:
            if wal_entries:
                ctx.wal.append_batch(txn.txn_id, RecordType.DELETE,
                                     wal_entries)
        ctx.cost.rows_returned = deleted
        return ExecResult(rowcount=deleted, cost=ctx.cost)

    return run


def compile_statement(plan: p.Plan) -> Callable[[ExecContext], Generator]:
    """Compile a top-level statement plan to a ``ctx -> generator`` closure.

    The returned closure follows the executor protocol: it yields
    :class:`LockRequest` objects on waits and returns an
    :class:`ExecResult` via ``StopIteration``.
    """
    if isinstance(plan, p.SelectPlan):
        return _compile_select(plan)
    if isinstance(plan, p.InsertPlan):
        return _compile_insert(plan)
    if isinstance(plan, p.UpdatePlan):
        return _compile_update(plan)
    if isinstance(plan, p.DeletePlan):
        return _compile_delete(plan)
    raise SqlError(f"cannot compile statement {type(plan).__name__}")
