"""Candidate enumeration, pricing and choice: the planner's decisions.

This stage sits between binding and physical plan construction. It is
the one place that knows which conjunct shapes make an index usable and
which join methods a pair of tables allows:

* :func:`access_candidates` / :func:`join_candidates` enumerate every
  physical alternative for a scan or a join edge, each priced with a
  simple page/row/probe cost model that mirrors what the executor
  actually charges to the buffer pool (equality against a literal reads
  the value's exact frequency from the :mod:`~repro.engine.stats`
  sketch; parameters fall back to ``1/ndv``; ranges interpolate over the
  value counts);
* :func:`pick_cheapest` chooses among them where the table has
  statistics; :func:`pick_syntactic` — longest equality prefix, else the
  first alternative in enumeration order — chooses where it has none
  (row count zero: the prices would be noise) and for every DML target
  scan, so schema-only workloads plan from syntax alone;
* :func:`choose_join_order` replaces the syntactic join order with a
  greedy cost-ordered enumeration (smallest estimated frontier first)
  when every table has statistics;
* :func:`plan_joins` builds the join tree, annotating every operator
  with ``est_rows`` / ``est_cost`` and recording rejected alternatives
  for ``EXPLAIN ... verbose``.

The purely syntactic planner these rules descend from is kept as the test
suite's reference, ``tests/oracles/heuristic_planner.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine import planner as pl
from repro.engine.sqlparse import nodes as n
from repro.engine.stats import UNKNOWN, TableStats
from repro.errors import SqlError

# Cost units: ~one row examined by the executor. PAGE covers a
# sequential heap-page touch, PROBE one B+Tree root-to-leaf traversal,
# FETCH one rid fetch through an index (row lock + heap page), ROW one
# row flowing through an operator.
PAGE_COST = 1.0
ROW_COST = 1.0
PROBE_COST = 2.0
FETCH_COST = 2.0

DEFAULT_SEL = 0.33
LIKE_SEL = 0.25


class CostModel:
    """Statistics access + cost arithmetic for one database.

    ``storage`` is the database's :class:`StoredDatabase`; without one
    (a planner over a bare schema) no table has statistics, every choice
    is the syntactic one, and nothing is annotated.
    """

    def __init__(self, db_name: str, storage=None):
        self.db_name = db_name
        self.storage = storage
        # Page arithmetic only ever decides between candidates of a table
        # that has rows, which takes a storage.
        self.rows_per_page = (storage.config.rows_per_page
                              if storage is not None else 1)

    def stats(self, table_name: str) -> Optional[TableStats]:
        if self.storage is None:
            return None
        return self.storage.stats.get(table_name)

    def has_rows(self, table_name: str) -> bool:
        """Whether the table's candidates can be priced at all."""
        stats = self.stats(table_name)
        return stats is not None and stats.row_count > 0

    def pages(self, row_count: int) -> int:
        return max(1, -(-row_count // self.rows_per_page))

    def seq_cost(self, row_count: int) -> float:
        return self.pages(row_count) * PAGE_COST + row_count * ROW_COST

    def annotate(self, plan: pl.Plan, est_rows: float,
                 est_cost: float) -> None:
        if self.storage is not None:
            plan.est_rows = est_rows
            plan.est_cost = est_cost


class SlotMap:
    """Resolve a global row slot back to its binding and column stats."""

    def __init__(self, bindings: Sequence[pl.Binding], model: CostModel):
        self.model = model
        self._ranges: List[Tuple[int, int, pl.Binding]] = [
            (b.offset, b.offset + b.width, b) for b in bindings
        ]
        self.all_slots: Set[int] = set()
        for lo, hi, _ in self._ranges:
            self.all_slots.update(range(lo, hi))

    def binding_of(self, slot: int) -> Optional[pl.Binding]:
        for lo, hi, binding in self._ranges:
            if lo <= slot < hi:
                return binding
        return None

    def column(self, slot: int):
        """(ColumnStats, table row count) for a slot, or None."""
        binding = self.binding_of(slot)
        if binding is None:
            return None
        stats = self.model.stats(binding.table)
        if stats is None:
            return None
        return stats.columns[slot - binding.offset], stats.row_count


def _probe_value(expr: n.Expr) -> Any:
    """Plan-time value of a comparison's non-slot side (UNKNOWN if not
    a literal — parameters and outer-row expressions resolve at run
    time)."""
    if isinstance(expr, n.Literal):
        return expr.value
    return UNKNOWN


def _product(values) -> float:
    out = 1.0
    for v in values:
        out *= v
    return out


def conjunct_selectivity(conjunct: n.Expr, slot_map: SlotMap) -> float:
    """Estimated fraction of rows a filter conjunct keeps."""
    parsed = pl._match_comparison(conjunct, slot_map.all_slots,
                                  slot_map.all_slots)
    if parsed is not None:
        op, slot_expr, other = parsed
        resolved = slot_map.column(slot_expr.index)
        if resolved is None:
            return DEFAULT_SEL
        col, rows = resolved
        if op == "=":
            if isinstance(other, pl.Slot):
                other_resolved = slot_map.column(other.index)
                other_ndv = other_resolved[0].distinct if other_resolved else 1
                return 1.0 / max(1, col.distinct, other_ndv)
            return col.eq_fraction(_probe_value(other), rows)
        value = UNKNOWN if pl.expr_slots(other) else _probe_value(other)
        if op == "<":
            return col.range_fraction(None, value, True, False, rows)
        if op == "<=":
            return col.range_fraction(None, value, True, True, rows)
        if op == ">":
            return col.range_fraction(value, None, False, True, rows)
        return col.range_fraction(value, None, True, True, rows)
    if isinstance(conjunct, n.IsNull) and isinstance(conjunct.expr, pl.Slot):
        resolved = slot_map.column(conjunct.expr.index)
        if resolved is None:
            return DEFAULT_SEL
        col, rows = resolved
        frac = col.nulls / rows if rows else 0.0
        return 1.0 - frac if conjunct.negated else frac
    if isinstance(conjunct, n.Between) and isinstance(conjunct.expr, pl.Slot):
        resolved = slot_map.column(conjunct.expr.index)
        if resolved is None:
            return DEFAULT_SEL
        col, rows = resolved
        lo = UNKNOWN if pl.expr_slots(conjunct.low) else _probe_value(
            conjunct.low)
        hi = UNKNOWN if pl.expr_slots(conjunct.high) else _probe_value(
            conjunct.high)
        sel = col.range_fraction(lo, hi, True, True, rows)
        return 1.0 - sel if conjunct.negated else sel
    if isinstance(conjunct, n.InList) and isinstance(conjunct.expr, pl.Slot):
        resolved = slot_map.column(conjunct.expr.index)
        if resolved is None:
            return DEFAULT_SEL
        col, rows = resolved
        sel = min(1.0, sum(col.eq_fraction(_probe_value(item), rows)
                           for item in conjunct.items))
        return 1.0 - sel if conjunct.negated else sel
    if (isinstance(conjunct, n.BinaryOp) and conjunct.op == "<>"
            and isinstance(conjunct.left, pl.Slot)):
        resolved = slot_map.column(conjunct.left.index)
        if resolved is None:
            return DEFAULT_SEL
        col, rows = resolved
        return 1.0 - col.eq_fraction(_probe_value(conjunct.right), rows)
    if isinstance(conjunct, n.BinaryOp) and conjunct.op == "LIKE":
        return LIKE_SEL
    return DEFAULT_SEL


# -- candidate enumeration ----------------------------------------------------


class Candidate:
    """One priced physical alternative for a scan or join edge."""

    __slots__ = ("kind", "cost", "rows", "used", "build", "eq_prefix")

    def __init__(self, kind: str, cost: float, rows: float,
                 used: List[n.Expr], build, eq_prefix: int = 0):
        self.kind = kind       # display label for rejected-plan notes
        self.cost = cost       # total cost of producing `rows`
        self.rows = rows       # estimated output rows
        self.used = used       # conjuncts the alternative consumes
        self.build = build     # () -> Plan
        # Leading index columns matched by equality (0: not an index
        # equality path) — all the syntactic pick looks at.
        self.eq_prefix = eq_prefix


def _parse_access_conjuncts(binding: pl.Binding, conjuncts: List[n.Expr],
                            available: Set[int]):
    """Split conjuncts into per-column eq and range maps: the conjunct
    shapes (``column OP constant-or-outer-slot``) an index can serve."""
    local = set(range(binding.offset, binding.offset + binding.width))
    eq: Dict[str, Tuple[n.Expr, n.Expr]] = {}
    ranges: Dict[str, List[Tuple[str, n.Expr, n.Expr]]] = {}
    for conjunct in conjuncts:
        parsed = pl._match_comparison(conjunct, local, available)
        if parsed is None:
            continue
        op, slot_expr, other = parsed
        col = binding.schema.columns[slot_expr.index - binding.offset].name
        if op == "=":
            eq.setdefault(col, (conjunct, other))
        else:
            ranges.setdefault(col, []).append((op, conjunct, other))
    return eq, ranges


def access_candidates(binding: pl.Binding, conjuncts: List[n.Expr],
                      available: Set[int], model: CostModel,
                      lock_exclusive: bool = False) -> List[Candidate]:
    """All priced access paths for one table (seq scan always included)."""
    stats = model.stats(binding.table)
    if stats is None:
        stats = TableStats(len(binding.schema.columns))
    rows = stats.row_count
    eq, ranges = _parse_access_conjuncts(binding, conjuncts, available)
    out: List[Candidate] = []
    db = model.db_name

    for index in binding.schema.indexes.values():
        prefix: List[str] = []
        for col in index.columns:
            if col in eq:
                prefix.append(col)
            else:
                break
        if prefix:
            sel = 1.0
            for col in prefix:
                pos = binding.schema.column_position(col)
                other = eq[col][1]
                value = (UNKNOWN if pl.expr_slots(other)
                         else _probe_value(other))
                sel *= stats.columns[pos].eq_fraction(value, rows)
            est = rows * sel
            cost = PROBE_COST + est * FETCH_COST
            used = [eq[c][0] for c in prefix]
            key_exprs = [eq[c][1] for c in prefix]

            def build_eq(index=index, key_exprs=key_exprs):
                return pl.IndexEqScan(binding, db, index, key_exprs,
                                      lock_exclusive=lock_exclusive)

            out.append(Candidate(f"IndexEqScan({index.name})", cost, est,
                                 used, build_eq, eq_prefix=len(prefix)))
            continue
        col = index.columns[0]
        if col in ranges:
            lo = hi = None
            lo_inc = hi_inc = True
            used = []
            for op, conjunct, other in ranges[col]:
                if op in (">", ">=") and lo is None:
                    lo, lo_inc = other, (op == ">=")
                    used.append(conjunct)
                elif op in ("<", "<=") and hi is None:
                    hi, hi_inc = other, (op == "<=")
                    used.append(conjunct)
            if used:
                pos = binding.schema.column_position(col)
                lo_v = (None if lo is None
                        else UNKNOWN if pl.expr_slots(lo)
                        else _probe_value(lo))
                hi_v = (None if hi is None
                        else UNKNOWN if pl.expr_slots(hi)
                        else _probe_value(hi))
                sel = stats.columns[pos].range_fraction(
                    lo_v, hi_v, lo_inc, hi_inc, rows)
                est = rows * sel
                cost = (PROBE_COST + est * FETCH_COST
                        + model.pages(int(est)) * PAGE_COST)

                def build_range(index=index, lo=lo, hi=hi, lo_inc=lo_inc,
                                hi_inc=hi_inc):
                    return pl.IndexRangeScan(binding, db, index, lo, hi,
                                             lo_inc, hi_inc,
                                             lock_exclusive=lock_exclusive)

                out.append(Candidate(f"IndexRangeScan({index.name})", cost,
                                     est, used, build_range))

    def build_seq():
        return pl.SeqScan(binding, db, lock_exclusive=lock_exclusive)

    out.append(Candidate("SeqScan", model.seq_cost(rows), float(rows), [],
                         build_seq))
    return out


def join_candidates(outer: Optional[pl.Plan], outer_rows: float,
                    binding: pl.Binding, conjuncts: List[n.Expr],
                    available: Set[int], model: CostModel,
                    slot_map: SlotMap) -> List[Candidate]:
    """Priced ways to join the next table onto a frontier of
    ``outer_rows`` estimated rows. ``outer`` may be None when only the
    numbers are needed (join-order search)."""
    stats = model.stats(binding.table)
    rows = stats.row_count if stats is not None else 0
    out: List[Candidate] = []
    db = model.db_name

    # Index lookup: any index access path usable with the outer slots
    # available.
    for cand in access_candidates(binding, conjuncts, available, model):
        if cand.kind == "SeqScan":
            continue
        per_probe = cand.rows
        cost = outer_rows * (PROBE_COST + per_probe * FETCH_COST)
        result = outer_rows * per_probe

        def build_ilj(cand=cand):
            return pl.IndexLookupJoin(outer, cand.build())

        out.append(Candidate(f"IndexLookupJoin/{cand.kind}", cost, result,
                             cand.used, build_ilj, cand.eq_prefix))

    # Hash join on equality conjuncts linking outer and inner.
    local = set(range(binding.offset, binding.offset + binding.width))
    outer_keys: List[n.Expr] = []
    inner_keys: List[n.Expr] = []
    hash_used: List[n.Expr] = []
    for conjunct in conjuncts:
        if not isinstance(conjunct, n.BinaryOp) or conjunct.op != "=":
            continue
        left_slots = pl.expr_slots(conjunct.left)
        right_slots = pl.expr_slots(conjunct.right)
        if left_slots <= available and right_slots <= local and right_slots:
            outer_keys.append(conjunct.left)
            inner_keys.append(conjunct.right)
            hash_used.append(conjunct)
        elif right_slots <= available and left_slots <= local and left_slots:
            outer_keys.append(conjunct.right)
            inner_keys.append(conjunct.left)
            hash_used.append(conjunct)
    if outer_keys:
        join_sel = 1.0
        for o_key, i_key in zip(outer_keys, inner_keys):
            inner_ndv = 1
            if isinstance(i_key, pl.Slot):
                resolved = slot_map.column(i_key.index)
                if resolved is not None:
                    inner_ndv = resolved[0].distinct
            outer_ndv = 1
            if isinstance(o_key, pl.Slot):
                resolved = slot_map.column(o_key.index)
                if resolved is not None:
                    outer_ndv = resolved[0].distinct
            join_sel *= 1.0 / max(1, inner_ndv, outer_ndv)
        result = outer_rows * rows * join_sel
        cost = (model.seq_cost(rows) + outer_rows * ROW_COST
                + result * ROW_COST)

        def build_hash():
            return pl.HashJoin(outer, pl.SeqScan(binding, db),
                               outer_keys, inner_keys,
                               binding.width, binding.offset)

        out.append(Candidate("HashJoin", cost, result, hash_used,
                             build_hash))

    result = outer_rows * rows
    cost = model.seq_cost(rows) + result * ROW_COST

    def build_cross():
        return pl.CrossJoin(outer, pl.SeqScan(binding, db))

    out.append(Candidate("CrossJoin", cost, result, [], build_cross))
    return out


def pick_cheapest(candidates: List[Candidate]) -> Candidate:
    """Cheapest candidate; ties resolve in enumeration order (indexes
    first)."""
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.cost < best.cost:
            best = cand
    return best


def pick_syntactic(candidates: List[Candidate]) -> Candidate:
    """The choice that needs no statistics.

    The longest index equality prefix wins (the first index on ties);
    without one, the first candidate in enumeration order — a range scan
    before the sequential scan; an index lookup join before a hash join
    before a cross join. Used for tables that have no rows to estimate
    from and for DML target scans, whose lock granularity must not
    depend on the data.
    """
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.eq_prefix > best.eq_prefix:
            best = cand
    return best


def _note_choice(what: str, chosen: Candidate,
                 candidates: List[Candidate]) -> Optional[str]:
    losers = [c for c in candidates if c is not chosen]
    if not losers:
        return None
    lost = ", ".join(f"{c.kind} cost={c.cost:.1f}" for c in losers)
    return (f"{what}: kept {chosen.kind} cost={chosen.cost:.1f} "
            f"rows={chosen.rows:.1f}; rejected {lost}")


# -- join-order search ---------------------------------------------------------


def choose_join_order(bindings: List[pl.Binding], conjuncts: List[n.Expr],
                      model: CostModel
                      ) -> Optional[Tuple[List[int], List[str]]]:
    """Greedy cost-ordered join enumeration.

    Returns a permutation of binding positions plus rejected-order
    notes, or None to keep the syntactic order (any table without
    statistics yet, including empty tables).
    """
    count = len(bindings)
    if not all(model.has_rows(b.table) for b in bindings):
        return None
    all_stats = [model.stats(b.table) for b in bindings]
    slot_map = SlotMap(bindings, model)
    local_slots = [set(range(b.offset, b.offset + b.width))
                   for b in bindings]
    local_conjs: List[List[n.Expr]] = [[] for _ in range(count)]
    for conjunct in conjuncts:
        slots = pl.expr_slots(conjunct)
        for i, owned in enumerate(local_slots):
            if slots and slots <= owned:
                local_conjs[i].append(conjunct)
                break
    local_sel = [
        _product(conjunct_selectivity(c, slot_map) for c in local_conjs[i])
        for i in range(count)
    ]
    eff_rows = [all_stats[i].row_count * local_sel[i] for i in range(count)]

    notes: List[str] = []
    scores = []
    for i in range(count):
        access = pick_cheapest(access_candidates(bindings[i], conjuncts,
                                                 set(), model))
        scores.append((access.cost + eff_rows[i], i))
    start = min(scores)[1]
    rejected_starts = ", ".join(
        f"{bindings[i].name} score={score:.1f}"
        for score, i in sorted(scores) if i != start)
    if rejected_starts:
        notes.append(f"join order: start {bindings[start].name} "
                     f"score={min(scores)[0]:.1f}; rejected "
                     f"{rejected_starts}")

    order = [start]
    frontier = eff_rows[start]
    placed = set(local_slots[start])
    remaining = [i for i in range(count) if i != start]
    while remaining:
        step_scores = []
        for j in remaining:
            cand = pick_cheapest(join_candidates(
                None, frontier, bindings[j], conjuncts, placed, model,
                slot_map))
            result = cand.rows * local_sel[j]
            step_scores.append((cand.cost + result, j, result))
        step_scores.sort()
        _, chosen, result = step_scores[0]
        if len(step_scores) > 1:
            notes.append(
                f"join order: next {bindings[chosen].name} "
                f"score={step_scores[0][0]:.1f}; rejected "
                + ", ".join(f"{bindings[j].name} score={s:.1f}"
                            for s, j, _ in step_scores[1:]))
        order.append(chosen)
        frontier = result
        placed |= local_slots[chosen]
        remaining.remove(chosen)
    return order, notes


# -- plan construction ---------------------------------------------------------


def plan_joins(bindings: List[pl.Binding], conjuncts: List[n.Expr],
               model: CostModel, rejected: List[str]) -> pl.Plan:
    """Build the scan-and-join tree over ``bindings``, in that order.

    Conjuncts are consumed by the access path or join that uses them and
    otherwise become a ``Filter`` as soon as their slots are available.
    Each table's candidates are priced and the cheapest kept when the
    table has statistics; a table without rows gets the syntactic pick
    and an estimate of zero.
    """
    slot_map = SlotMap(bindings, model)
    remaining = list(conjuncts)
    available: Set[int] = set()
    root: Optional[pl.Plan] = None
    est = cost = 0.0
    for binding in bindings:
        if root is None:
            what = f"scan {binding.name}"
            candidates = access_candidates(binding, remaining, available,
                                           model)
        else:
            what = f"join {binding.name}"
            candidates = join_candidates(root, est, binding, remaining,
                                         available, model, slot_map)
        if model.has_rows(binding.table):
            chosen = pick_cheapest(candidates)
            note = _note_choice(what, chosen, candidates)
            if note:
                rejected.append(note)
            est = chosen.rows
            cost += chosen.cost
        else:
            chosen = pick_syntactic(candidates)
            est = 0.0
        root = chosen.build()
        model.annotate(root, est, cost)
        for conjunct in chosen.used:
            remaining.remove(conjunct)
        available |= set(range(binding.offset,
                               binding.offset + binding.width))
        for conjunct in [c for c in remaining
                         if pl.expr_slots(c) <= available]:
            root = pl.Filter(root, conjunct)
            est *= conjunct_selectivity(conjunct, slot_map)
            model.annotate(root, est, cost)
            remaining.remove(conjunct)
    if remaining:
        raise SqlError(f"unplaceable predicates: {remaining}")
    return root


def finalize_estimates(plan: pl.Plan, slot_map: SlotMap) -> None:
    """Propagate row/cost estimates to operators above the join tree."""
    _walk_estimates(plan, slot_map)


def _walk_estimates(plan, slot_map: SlotMap):
    if not isinstance(plan, pl.Plan):
        return None
    existing = getattr(plan, "est_rows", None)
    if existing is not None:
        # Scans/joins/filters were annotated during construction, but
        # still descend so nested subtrees get visited.
        for attr in ("child", "outer", "inner"):
            node = getattr(plan, attr, None)
            if node is not None:
                _walk_estimates(node, slot_map)
        return existing, getattr(plan, "est_cost", 0.0)
    child = getattr(plan, "child", None)
    below = _walk_estimates(child, slot_map) if child is not None else None
    if below is None:
        return None
    child_rows, child_cost = below
    if isinstance(plan, pl.Aggregate):
        if not plan.group_exprs:
            rows = 1.0
        else:
            rows = child_rows
            ndv_product = 1.0
            for group in plan.group_exprs:
                if isinstance(group, pl.Slot):
                    resolved = slot_map.column(group.index)
                    if resolved is not None:
                        ndv_product *= max(1, resolved[0].distinct)
                else:
                    ndv_product = float("inf")
                    break
            rows = min(child_rows, ndv_product)
        cost = child_cost + child_rows * ROW_COST
    elif isinstance(plan, pl.Sort):
        rows = child_rows
        cost = child_cost + child_rows * ROW_COST
    elif isinstance(plan, pl.Limit):
        rows = child_rows
        if plan.limit is not None:
            rows = min(rows, float(plan.limit + plan.offset))
        cost = child_cost
    elif isinstance(plan, pl.Distinct):
        rows = child_rows
        cost = child_cost + child_rows * ROW_COST
    elif isinstance(plan, (pl.Project, pl.Filter)):
        rows = child_rows
        cost = child_cost
    else:
        return None
    slot_map.model.annotate(plan, rows, cost)
    return rows, cost
