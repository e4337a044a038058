"""The purely syntactic planner — the access-path / join chooser's reference.

``_plan_joins``, ``_apply_filters``, ``_access_path``, ``_join_one``,
``plan_update`` and ``plan_delete`` below are ``repro/engine/planner.py``
as of PR 15, verbatim (lines 505–632 and 653–685): tables join in
syntactic order; the longest equality prefix over any index wins (first
index on ties), else the first one-column range, else a sequential scan;
a join uses an index lookup when the inner table has any index path, a
hash join when an equality links the sides, a cross product otherwise.
Nothing is priced and nothing is annotated.

Production keeps one candidate enumerator (:mod:`repro.engine.optimizer`)
and expresses these choices as a pick rule over its candidates;
``tests/property/test_cost_based_property.py`` requires that rule to
reproduce this planner's plans exactly wherever production uses it (any
table without statistics, every DML target scan). Only ``plan_select``
is new here: the FROM/WHERE half of the old method with its cost-model
forks removed, handing the join tree to the production planner's shared
SELECT-list / GROUP BY / ORDER BY / LIMIT half.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.engine.planner import (Binding, CrossJoin, DeletePlan, Filter,
                                  HashJoin, IndexEqScan, IndexLookupJoin,
                                  IndexRangeScan, Plan, Planner, Scope,
                                  SelectPlan, SeqScan, UpdatePlan,
                                  _match_comparison, _set_exclusive,
                                  _split_conjuncts, bind_expr, expr_slots)
from repro.engine.schema import IndexDef
from repro.engine.sqlparse import nodes as n
from repro.errors import SqlError


class HeuristicPlanner(Planner):
    """Plans from syntax alone; never consults catalogue statistics."""

    def plan_select(self, stmt: n.Select) -> SelectPlan:
        refs = list(stmt.tables) + [j.table for j in stmt.joins]
        bindings, scope = self._make_bindings(refs, list(range(len(refs))))
        conjuncts = self._bind_conjuncts(stmt, scope)
        root = self._plan_joins(bindings, conjuncts)
        return self._plan_above_joins(stmt, bindings, scope, root, [])

    def _plan_joins(self, bindings: List[Binding],
                    conjuncts: List[n.Expr]) -> Plan:
        remaining = list(conjuncts)
        available: Set[int] = set()

        def usable(expr: n.Expr) -> bool:
            return expr_slots(expr) <= available

        first = bindings[0]
        root, used = self._access_path(first, remaining, available)
        for conjunct in used:
            remaining.remove(conjunct)
        available |= set(range(first.offset, first.offset + first.width))
        root = self._apply_filters(root, remaining, usable)

        for binding in bindings[1:]:
            root, used = self._join_one(root, binding, remaining, available)
            for conjunct in used:
                remaining.remove(conjunct)
            available |= set(range(binding.offset,
                                   binding.offset + binding.width))
            root = self._apply_filters(root, remaining, usable)
        if remaining:
            leftovers = remaining
            raise SqlError(f"unplaceable predicates: {leftovers}")
        return root

    def _apply_filters(self, plan: Plan, remaining: List[n.Expr],
                       usable) -> Plan:
        for conjunct in [c for c in remaining if usable(c)]:
            plan = Filter(plan, conjunct)
            remaining.remove(conjunct)
        return plan

    def _access_path(self, binding: Binding, conjuncts: List[n.Expr],
                     available: Set[int]) -> Tuple[Plan, List[n.Expr]]:
        """Pick the best access path for a base table.

        Considers equality conjuncts of the form slot = constant/param
        (or = available outer slot) matching an index prefix; then a
        one-column range; falls back to a sequential scan.
        """
        local = set(range(binding.offset, binding.offset + binding.width))
        eq: Dict[str, Tuple[n.Expr, n.Expr]] = {}
        ranges: Dict[str, List[Tuple[str, n.Expr, n.Expr]]] = {}
        for conjunct in conjuncts:
            parsed = _match_comparison(conjunct, local, available)
            if parsed is None:
                continue
            op, slot_expr, other = parsed
            col = binding.schema.columns[slot_expr.index - binding.offset].name
            if op == "=":
                eq.setdefault(col, (conjunct, other))
            else:
                ranges.setdefault(col, []).append((op, conjunct, other))

        best: Optional[Tuple[IndexDef, List[str]]] = None
        for index in binding.schema.indexes.values():
            prefix: List[str] = []
            for col in index.columns:
                if col in eq:
                    prefix.append(col)
                else:
                    break
            if prefix and (best is None or len(prefix) > len(best[1])):
                best = (index, prefix)
        if best is not None:
            index, prefix = best
            used = [eq[c][0] for c in prefix]
            key_exprs = [eq[c][1] for c in prefix]
            return (IndexEqScan(binding, self.db.name, index, key_exprs), used)

        # Range on the first column of some index.
        for index in binding.schema.indexes.values():
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
                    return (IndexRangeScan(binding, self.db.name, index,
                                           lo, hi, lo_inc, hi_inc), used)
        return SeqScan(binding, self.db.name), []

    def _join_one(self, outer: Plan, binding: Binding,
                  conjuncts: List[n.Expr],
                  available: Set[int]) -> Tuple[Plan, List[n.Expr]]:
        """Join the next table onto the running plan."""
        inner_path, used = self._access_path(binding, conjuncts, available)
        if isinstance(inner_path, (IndexEqScan, IndexRangeScan)):
            keyed = (isinstance(inner_path, IndexEqScan)
                     and any(expr_slots(e) & available
                             for e in inner_path.key_exprs))
            top_level_const = (isinstance(inner_path, IndexEqScan)
                               and not keyed)
            if keyed or top_level_const or isinstance(inner_path, IndexRangeScan):
                return IndexLookupJoin(outer, inner_path), used

        # Hash join on equality conjuncts linking outer and inner.
        local = set(range(binding.offset, binding.offset + binding.width))
        outer_keys: List[n.Expr] = []
        inner_keys: List[n.Expr] = []
        used = []
        for conjunct in conjuncts:
            if not isinstance(conjunct, n.BinaryOp) or conjunct.op != "=":
                continue
            left_slots = expr_slots(conjunct.left)
            right_slots = expr_slots(conjunct.right)
            if left_slots <= available and right_slots <= local and right_slots:
                outer_keys.append(conjunct.left)
                inner_keys.append(conjunct.right)
                used.append(conjunct)
            elif right_slots <= available and left_slots <= local and left_slots:
                outer_keys.append(conjunct.right)
                inner_keys.append(conjunct.left)
                used.append(conjunct)
        inner_scan = SeqScan(binding, self.db.name)
        if outer_keys:
            return (HashJoin(outer, inner_scan, outer_keys, inner_keys,
                             binding.width, binding.offset), used)
        return CrossJoin(outer, inner_scan), []

    def plan_update(self, stmt: n.Update) -> UpdatePlan:
        schema = self.db.table(stmt.table)
        binding = Binding(stmt.table, stmt.table, schema, 0)
        scope = Scope([binding])
        conjuncts: List[n.Expr] = []
        if stmt.where is not None:
            _split_conjuncts(bind_expr(stmt.where, scope), conjuncts)
        source, used = self._access_path(binding, conjuncts, set())
        for conjunct in used:
            conjuncts.remove(conjunct)
        _set_exclusive(source)
        for conjunct in conjuncts:
            source = Filter(source, conjunct)
        assignments = [
            (schema.column_position(col), bind_expr(expr, scope))
            for col, expr in stmt.assignments
        ]
        return UpdatePlan(self.db.name, binding, source, assignments)

    def plan_delete(self, stmt: n.Delete) -> DeletePlan:
        schema = self.db.table(stmt.table)
        binding = Binding(stmt.table, stmt.table, schema, 0)
        scope = Scope([binding])
        conjuncts: List[n.Expr] = []
        if stmt.where is not None:
            _split_conjuncts(bind_expr(stmt.where, scope), conjuncts)
        source, used = self._access_path(binding, conjuncts, set())
        for conjunct in used:
            conjuncts.remove(conjunct)
        _set_exclusive(source)
        for conjunct in conjuncts:
            source = Filter(source, conjunct)
        return DeletePlan(self.db.name, binding, source)
