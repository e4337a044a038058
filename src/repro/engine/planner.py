"""Query planning: name resolution and physical plan construction.

The planner binds a parsed statement against the catalog and emits a tree
of physical operators that :mod:`repro.engine.compile` turns into a
runner:

* access paths — ``IndexEqScan`` / ``IndexRangeScan`` when a WHERE
  conjunct matches an index prefix, ``SeqScan`` otherwise;
* joins — an ``IndexLookupJoin`` when the join key hits an index on the
  inner table, a ``HashJoin`` when there is an equality conjunct without
  an index, and a filtered cross-product as the last resort;
* ``Filter`` / ``Project`` / ``Aggregate`` / ``Sort`` / ``Limit`` /
  ``Distinct`` on top.

Which of those alternatives a statement's conjuncts allow is enumerated
in one place, :mod:`repro.engine.optimizer`, which also picks among them:
by estimated cost where the catalogue has statistics, by a syntactic
rule where it has none and for every DML target scan.

Rows flow through the plan as concatenated tuples (one slot range per
FROM-table in join order), so a column reference binds to a fixed global
offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.engine import optimizer
from repro.engine.schema import DatabaseSchema, IndexDef, TableSchema
from repro.engine.sqlparse import nodes as n
from repro.errors import SqlError


# -- binding ------------------------------------------------------------------


@dataclass
class Binding:
    """One FROM-clause table: its binding name and global slot range."""

    name: str          # alias or table name
    table: str         # real table name
    schema: TableSchema
    offset: int        # first global slot of this table's columns

    @property
    def width(self) -> int:
        return len(self.schema.columns)


class Scope:
    """Column-name resolution over the bound FROM tables."""

    def __init__(self, bindings: List[Binding]):
        self.bindings = bindings
        self._by_name: Dict[str, Binding] = {}
        for binding in bindings:
            if binding.name in self._by_name:
                raise SqlError(f"duplicate table binding {binding.name!r}")
            self._by_name[binding.name] = binding

    def binding(self, name: str) -> Binding:
        if name not in self._by_name:
            raise SqlError(f"unknown table {name!r}")
        return self._by_name[name]

    def resolve(self, ref: n.ColumnRef) -> int:
        """Global slot of a column reference."""
        if ref.qualifier is not None:
            binding = self.binding(ref.qualifier)
            return binding.offset + binding.schema.column_position(ref.name)
        matches = [
            b for b in self.bindings if b.schema.has_column(ref.name)
        ]
        if not matches:
            raise SqlError(f"unknown column {ref.name!r}")
        if len(matches) > 1:
            raise SqlError(f"ambiguous column {ref.name!r}")
        binding = matches[0]
        return binding.offset + binding.schema.column_position(ref.name)


# -- bound expressions ---------------------------------------------------------
# The planner rewrites parser expressions into "bound" forms where column
# references carry global slots. Bound nodes reuse the parser dataclasses
# except ColumnRef, which becomes Slot.


@dataclass(frozen=True)
class Slot(n.Expr):
    """A resolved column reference: global slot index into the row tuple."""

    index: int
    name: str = ""


def bind_expr(expr: n.Expr, scope: Scope) -> n.Expr:
    """Rewrite ColumnRefs to Slots, recursively."""
    if isinstance(expr, n.ColumnRef):
        slot = scope.resolve(expr)
        return Slot(slot, str(expr))
    if isinstance(expr, n.BinaryOp):
        return n.BinaryOp(expr.op, bind_expr(expr.left, scope),
                          bind_expr(expr.right, scope))
    if isinstance(expr, n.UnaryOp):
        return n.UnaryOp(expr.op, bind_expr(expr.operand, scope))
    if isinstance(expr, n.InList):
        return n.InList(bind_expr(expr.expr, scope),
                        tuple(bind_expr(i, scope) for i in expr.items),
                        expr.negated)
    if isinstance(expr, n.Between):
        return n.Between(bind_expr(expr.expr, scope),
                         bind_expr(expr.low, scope),
                         bind_expr(expr.high, scope), expr.negated)
    if isinstance(expr, n.IsNull):
        return n.IsNull(bind_expr(expr.expr, scope), expr.negated)
    if isinstance(expr, n.FuncCall):
        arg = bind_expr(expr.arg, scope) if expr.arg is not None else None
        return n.FuncCall(expr.name, arg, expr.star, expr.distinct)
    if isinstance(expr, (n.Literal, n.Param, Slot)):
        return expr
    raise SqlError(f"cannot bind expression {expr!r}")


def expr_slots(expr: n.Expr) -> Set[int]:
    """All row slots an expression reads."""
    out: Set[int] = set()
    _collect_slots(expr, out)
    return out


def _collect_slots(expr: n.Expr, out: Set[int]) -> None:
    if isinstance(expr, Slot):
        out.add(expr.index)
    elif isinstance(expr, n.BinaryOp):
        _collect_slots(expr.left, out)
        _collect_slots(expr.right, out)
    elif isinstance(expr, n.UnaryOp):
        _collect_slots(expr.operand, out)
    elif isinstance(expr, n.InList):
        _collect_slots(expr.expr, out)
        for item in expr.items:
            _collect_slots(item, out)
    elif isinstance(expr, n.Between):
        _collect_slots(expr.expr, out)
        _collect_slots(expr.low, out)
        _collect_slots(expr.high, out)
    elif isinstance(expr, n.IsNull):
        _collect_slots(expr.expr, out)
    elif isinstance(expr, n.FuncCall) and expr.arg is not None:
        _collect_slots(expr.arg, out)


def contains_aggregate(expr: n.Expr) -> bool:
    if isinstance(expr, n.FuncCall):
        return True
    if isinstance(expr, n.BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, n.UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, (n.InList, n.Between, n.IsNull)):
        inner = getattr(expr, "expr")
        return contains_aggregate(inner)
    return False


# -- physical plan nodes --------------------------------------------------------


class Plan:
    """Base class for physical operators."""


@dataclass
class SeqScan(Plan):
    binding: Binding
    db: str
    lock_exclusive: bool = False   # True for UPDATE/DELETE target scans


@dataclass
class IndexEqScan(Plan):
    binding: Binding
    db: str
    index: IndexDef
    # One bound expression per index-key column prefix; evaluated against
    # the partial outer row (empty for a top-level scan).
    key_exprs: List[n.Expr] = field(default_factory=list)
    lock_exclusive: bool = False


@dataclass
class IndexRangeScan(Plan):
    binding: Binding
    db: str
    index: IndexDef
    # Single-column range on the index's first column.
    lo: Optional[n.Expr] = None
    hi: Optional[n.Expr] = None
    lo_inclusive: bool = True
    hi_inclusive: bool = True
    lock_exclusive: bool = False


@dataclass
class Filter(Plan):
    child: Plan
    predicate: n.Expr


@dataclass
class IndexLookupJoin(Plan):
    """For each outer row, probe the inner table through an index."""

    outer: Plan
    inner: Plan   # an IndexEqScan whose key_exprs read outer slots


@dataclass
class HashJoin(Plan):
    outer: Plan
    inner: Plan
    outer_keys: List[n.Expr]
    inner_keys: List[n.Expr]
    inner_width: int
    inner_offset: int


@dataclass
class CrossJoin(Plan):
    outer: Plan
    inner: Plan


@dataclass
class Project(Plan):
    child: Plan
    exprs: List[n.Expr]
    names: List[str]


@dataclass
class AggItem:
    func: str                # COUNT/SUM/AVG/MIN/MAX
    arg: Optional[n.Expr]
    star: bool
    distinct: bool
    name: str


@dataclass
class Aggregate(Plan):
    child: Plan
    group_exprs: List[n.Expr]
    aggs: List[AggItem]
    # Output layout: group values first, then aggregate values; the
    # final Project above maps them into the SELECT list.
    output_exprs: List[n.Expr]
    output_names: List[str]
    # Optional HAVING predicate over the raw (group ++ agg) layout.
    having: Optional[n.Expr] = None


@dataclass
class Sort(Plan):
    child: Plan
    keys: List[Tuple[n.Expr, bool]]  # (expr, descending)


@dataclass
class Limit(Plan):
    child: Plan
    limit: Optional[int]
    offset: int


@dataclass
class Distinct(Plan):
    child: Plan


# Post-aggregation slot: reads the aggregate operator's output row.
@dataclass(frozen=True)
class AggSlot(n.Expr):
    index: int
    name: str = ""


# -- DML plans -------------------------------------------------------------------


@dataclass
class InsertPlan(Plan):
    db: str
    table: TableSchema
    # Each row: one bound expression per table column (defaults filled).
    rows: List[List[n.Expr]]


@dataclass
class UpdatePlan(Plan):
    db: str
    binding: Binding
    source: Plan                    # yields target rows (X-locked)
    # (column position, bound expression) pairs
    assignments: List[Tuple[int, n.Expr]]


@dataclass
class DeletePlan(Plan):
    db: str
    binding: Binding
    source: Plan


@dataclass
class SelectPlan(Plan):
    root: Plan
    column_names: List[str]
    # Alternatives the optimizer priced and discarded (EXPLAIN verbose);
    # empty when no table of the statement has statistics.
    rejected: List[str] = field(default_factory=list)


# -- planner ---------------------------------------------------------------------


class Planner:
    """Builds physical plans for one database's statements.

    Access paths and join methods come from the one candidate
    enumerator in :mod:`repro.engine.optimizer`. With ``storage``, SELECT
    planning prices the candidates of every table that has rows against
    the catalogue statistics, reorders joins by cost, and stamps
    ``est_rows``/``est_cost`` on the nodes; a table without statistics —
    every table, when there is no ``storage`` — gets the syntactic pick
    (:func:`~repro.engine.optimizer.pick_syntactic`) and no reordering.
    DML target scans always use the syntactic pick: their lock
    granularity (row X vs table X) is part of the concurrency behavior
    tests pin down.
    """

    def __init__(self, db_schema: DatabaseSchema, storage=None):
        self.db = db_schema
        self.model = optimizer.CostModel(db_schema.name, storage)

    # .. SELECT ..................................................................

    def _make_bindings(self, refs, order: List[int]
                       ) -> Tuple[List[Binding], Scope]:
        """Bindings in syntactic list order, slot offsets assigned in
        join order (``order`` permutes syntactic positions)."""
        bindings: List[Optional[Binding]] = [None] * len(refs)
        offset = 0
        for idx in order:
            ref = refs[idx]
            schema = self.db.table(ref.table)
            bindings[idx] = Binding(ref.binding, ref.table, schema, offset)
            offset += len(schema.columns)
        return bindings, Scope(bindings)

    def _bind_conjuncts(self, stmt: n.Select, scope: Scope) -> List[n.Expr]:
        conjuncts: List[n.Expr] = []
        if stmt.where is not None:
            _split_conjuncts(bind_expr(stmt.where, scope), conjuncts)
        for join in stmt.joins:
            _split_conjuncts(bind_expr(join.condition, scope), conjuncts)
        return conjuncts

    def plan_select(self, stmt: n.Select) -> SelectPlan:
        refs = list(stmt.tables) + [j.table for j in stmt.joins]
        order = list(range(len(refs)))
        rejected: List[str] = []
        if len(refs) > 1:
            # Bind once in syntactic order purely for cardinality
            # analysis; the real bindings below re-assign slot offsets
            # in the chosen join order and everything is rebound.
            syn_bindings, syn_scope = self._make_bindings(refs, order)
            syn_conjuncts = self._bind_conjuncts(stmt, syn_scope)
            picked = optimizer.choose_join_order(syn_bindings,
                                                 syn_conjuncts, self.model)
            if picked is not None:
                order, notes = picked
                rejected.extend(notes)

        bindings, scope = self._make_bindings(refs, order)
        conjuncts = self._bind_conjuncts(stmt, scope)
        root = optimizer.plan_joins([bindings[i] for i in order], conjuncts,
                                    self.model, rejected)
        return self._plan_above_joins(stmt, bindings, scope, root, rejected)

    def _plan_above_joins(self, stmt: n.Select, bindings: List[Binding],
                          scope: Scope, root: Plan,
                          rejected: List[str]) -> SelectPlan:
        """SELECT list, GROUP BY, ORDER BY, DISTINCT and LIMIT over a
        join tree."""
        if stmt.for_update:
            _set_exclusive_recursive(root)

        # SELECT list
        if stmt.star:
            exprs: List[n.Expr] = []
            names: List[str] = []
            for binding in bindings:
                for i, col in enumerate(binding.schema.columns):
                    exprs.append(Slot(binding.offset + i, col.name))
                    names.append(col.name)
            items = list(zip(exprs, names))
        else:
            items = []
            for item in stmt.items:
                bound = bind_expr(item.expr, scope)
                name = item.alias or _default_name(item.expr)
                items.append((bound, name))

        has_agg = bool(stmt.group_by) or any(
            contains_aggregate(e) for e, _ in items
        )

        # ORDER BY may reference SELECT-list aliases (e.g. ORDER BY cnt).
        aliases: Dict[str, n.Expr] = {}
        for item in stmt.items:
            if item.alias:
                aliases[item.alias] = bind_expr(item.expr, scope)
        order_exprs = []
        for order in stmt.order_by:
            if (isinstance(order.expr, n.ColumnRef)
                    and order.expr.qualifier is None
                    and order.expr.name in aliases):
                bound_order = aliases[order.expr.name]
            else:
                bound_order = bind_expr(order.expr, scope)
            order_exprs.append((bound_order, order.descending))

        if has_agg:
            # The Aggregate operator emits raw rows laid out as
            # (group values ++ aggregate values); HAVING, ORDER BY, and
            # the final projection all address that raw layout via
            # AggSlot.
            agg = self._plan_aggregate(stmt, scope, root, items)
            root = agg
            if agg.having is not None:
                root = Filter(root, agg.having)
            if order_exprs:
                rewritten = [
                    (_rewrite_over_agg(expr, agg), desc)
                    for expr, desc in order_exprs
                ]
                root = Sort(root, rewritten)
            root = Project(root, agg.output_exprs, agg.output_names)
            column_names = agg.output_names
        else:
            if order_exprs and not _sort_elidable(root, order_exprs):
                root = Sort(root, order_exprs)
            root = Project(root, [e for e, _ in items], [nm for _, nm in items])
            column_names = [nm for _, nm in items]

        if stmt.distinct:
            root = Distinct(root)
        if stmt.limit is not None or stmt.offset is not None:
            root = Limit(root, stmt.limit, stmt.offset or 0)
        optimizer.finalize_estimates(
            root, optimizer.SlotMap(bindings, self.model))
        return SelectPlan(root, column_names, rejected=rejected)

    def _plan_aggregate(self, stmt: n.Select, scope: Scope, child: Plan,
                        items: List[Tuple[n.Expr, str]]) -> Aggregate:
        group_exprs = [bind_expr(g, scope) for g in stmt.group_by]
        aggs: List[AggItem] = []

        def register(func: n.FuncCall, name: str) -> AggSlot:
            aggs.append(AggItem(func.name, func.arg, func.star,
                                func.distinct, name))
            return AggSlot(len(group_exprs) + len(aggs) - 1, name)

        output_exprs: List[n.Expr] = []
        output_names: List[str] = []
        for expr, name in items:
            rewritten = _rewrite_aggregates(expr, group_exprs, register, name)
            output_exprs.append(rewritten)
            output_names.append(name)
        having = None
        if stmt.having is not None:
            # HAVING may reference aggregates not in the SELECT list;
            # they register extra accumulator slots like any other.
            bound = bind_expr(stmt.having, scope)
            having = _rewrite_aggregates(bound, group_exprs, register,
                                         "having")
        return Aggregate(child, group_exprs, aggs, output_exprs,
                         output_names, having=having)

    # .. DML .....................................................................

    def plan_insert(self, stmt: n.Insert) -> InsertPlan:
        schema = self.db.table(stmt.table)
        columns = stmt.columns or schema.column_names
        positions = [schema.column_position(c) for c in columns]
        rows: List[List[n.Expr]] = []
        for value_row in stmt.rows:
            if len(value_row) != len(columns):
                raise SqlError(
                    f"INSERT {stmt.table}: {len(columns)} columns but "
                    f"{len(value_row)} values"
                )
            full: List[n.Expr] = [n.Literal(None)] * len(schema.columns)
            for pos, expr in zip(positions, value_row):
                full[pos] = _bind_constant(expr)
            rows.append(full)
        return InsertPlan(self.db.name, schema, rows)

    def _target_scan(self, table: str, where: Optional[n.Expr]
                     ) -> Tuple[Binding, Scope, Plan]:
        """The X-locking scan that finds an UPDATE/DELETE's target rows."""
        binding = Binding(table, table, self.db.table(table), 0)
        scope = Scope([binding])
        conjuncts: List[n.Expr] = []
        if where is not None:
            _split_conjuncts(bind_expr(where, scope), conjuncts)
        chosen = optimizer.pick_syntactic(optimizer.access_candidates(
            binding, conjuncts, set(), self.model, lock_exclusive=True))
        source = chosen.build()
        for conjunct in chosen.used:
            conjuncts.remove(conjunct)
        for conjunct in conjuncts:
            source = Filter(source, conjunct)
        return binding, scope, source

    def plan_update(self, stmt: n.Update) -> UpdatePlan:
        binding, scope, source = self._target_scan(stmt.table, stmt.where)
        assignments = [
            (binding.schema.column_position(col), bind_expr(expr, scope))
            for col, expr in stmt.assignments
        ]
        return UpdatePlan(self.db.name, binding, source, assignments)

    def plan_delete(self, stmt: n.Delete) -> DeletePlan:
        binding, _, source = self._target_scan(stmt.table, stmt.where)
        return DeletePlan(self.db.name, binding, source)


def _sort_elidable(plan: Plan, order_exprs) -> bool:
    """True when the plan already streams rows in the requested order.

    Covers the common top-k pattern — ``WHERE col >= ? AND col <= ?
    ORDER BY col LIMIT k`` over an index on ``col`` — where eliding the
    sort lets LIMIT stop the scan early, bounding both work and the
    number of rows the statement locks.
    """
    if len(order_exprs) != 1:
        return False
    expr, descending = order_exprs[0]
    if descending or not isinstance(expr, Slot):
        return False
    scan = plan
    while isinstance(scan, Filter):
        scan = scan.child
    if not isinstance(scan, IndexRangeScan):
        return False
    first_col = scan.index.columns[0]
    first_slot = scan.binding.offset + scan.binding.schema.column_position(
        first_col)
    return first_slot == expr.index


def _set_exclusive(plan: Plan) -> None:
    if isinstance(plan, (SeqScan, IndexEqScan, IndexRangeScan)):
        plan.lock_exclusive = True


def _set_exclusive_recursive(plan: Plan) -> None:
    """SELECT ... FOR UPDATE: every scanned row is X-locked."""
    _set_exclusive(plan)
    for attr in ("child", "outer", "inner", "source"):
        node = getattr(plan, attr, None)
        if isinstance(node, Plan):
            _set_exclusive_recursive(node)


def _bind_constant(expr: n.Expr) -> n.Expr:
    """Bind an expression that may not reference any column."""
    if isinstance(expr, (n.Literal, n.Param)):
        return expr
    if isinstance(expr, n.BinaryOp):
        return n.BinaryOp(expr.op, _bind_constant(expr.left),
                          _bind_constant(expr.right))
    if isinstance(expr, n.UnaryOp):
        return n.UnaryOp(expr.op, _bind_constant(expr.operand))
    raise SqlError(f"expected a constant expression, got {expr!r}")


def _split_conjuncts(expr: n.Expr, out: List[n.Expr]) -> None:
    if isinstance(expr, n.BinaryOp) and expr.op == "AND":
        _split_conjuncts(expr.left, out)
        _split_conjuncts(expr.right, out)
    else:
        out.append(expr)


def _match_comparison(expr: n.Expr, local: Set[int], available: Set[int]):
    """Match ``local_slot OP constant-or-available`` (either side).

    Returns (op, slot_expr, other_expr) with op normalized so the slot is
    on the left, or None.
    """
    if not isinstance(expr, n.BinaryOp):
        return None
    if expr.op not in ("=", "<", "<=", ">", ">="):
        return None
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
    left, right = expr.left, expr.right
    if isinstance(left, Slot) and left.index in local:
        other_slots = expr_slots(right)
        if other_slots <= available and left.index not in other_slots:
            return expr.op, left, right
    if isinstance(right, Slot) and right.index in local:
        other_slots = expr_slots(left)
        if other_slots <= available and right.index not in other_slots:
            return flip[expr.op], right, left
    return None


def _default_name(expr: n.Expr) -> str:
    if isinstance(expr, n.ColumnRef):
        return expr.name
    if isinstance(expr, n.FuncCall):
        return expr.name.lower()
    return "expr"


def _rewrite_aggregates(expr: n.Expr, group_exprs: List[n.Expr],
                        register, name: str) -> n.Expr:
    """Rewrite a SELECT item over (group keys ++ aggregates) output."""
    for i, group in enumerate(group_exprs):
        if expr == group:
            return AggSlot(i, name)
    if isinstance(expr, n.FuncCall):
        return register(expr, name)
    if isinstance(expr, n.BinaryOp):
        return n.BinaryOp(expr.op,
                          _rewrite_aggregates(expr.left, group_exprs,
                                              register, name),
                          _rewrite_aggregates(expr.right, group_exprs,
                                              register, name))
    if isinstance(expr, n.UnaryOp):
        return n.UnaryOp(expr.op,
                         _rewrite_aggregates(expr.operand, group_exprs,
                                             register, name))
    if isinstance(expr, (n.Literal, n.Param)):
        return expr
    raise SqlError(
        f"SELECT item {name!r} must be a group key or aggregate"
    )


def _rewrite_over_agg(expr: n.Expr, agg: Aggregate) -> n.Expr:
    """Rewrite an ORDER BY expression over an Aggregate's output."""
    for i, group in enumerate(agg.group_exprs):
        if expr == group:
            return AggSlot(i, "")
    if isinstance(expr, n.FuncCall):
        for i, item in enumerate(agg.aggs):
            if (item.func == expr.name and item.arg == expr.arg
                    and item.star == expr.star):
                return AggSlot(len(agg.group_exprs) + i, "")
        raise SqlError(f"ORDER BY aggregate {expr.name} not in SELECT list")
    if isinstance(expr, n.BinaryOp):
        return n.BinaryOp(expr.op, _rewrite_over_agg(expr.left, agg),
                          _rewrite_over_agg(expr.right, agg))
    if isinstance(expr, n.UnaryOp):
        return n.UnaryOp(expr.op, _rewrite_over_agg(expr.operand, agg))
    if isinstance(expr, (n.Literal, n.Param)):
        return expr
    raise SqlError(f"cannot order by {expr!r} over aggregated output")
