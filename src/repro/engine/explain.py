"""EXPLAIN: render a physical plan as an indented operator tree.

Not part of the paper, but indispensable when studying which access
paths the TPC-W interactions take (and therefore which locks they
acquire — the input to the deadlock experiments).

Usage::

    from repro.engine.explain import explain
    print(explain(engine.plan("shop", "SELECT ... WHERE i_id = ?")))
"""

from __future__ import annotations

from typing import List

from repro.engine import planner as p
from repro.engine.sqlparse import nodes as n


def _expr(expr) -> str:
    if isinstance(expr, p.Slot):
        return expr.name or f"${expr.index}"
    if isinstance(expr, p.AggSlot):
        return expr.name or f"agg${expr.index}"
    if isinstance(expr, n.Literal):
        return repr(expr.value)
    if isinstance(expr, n.Param):
        return f"?{expr.index}"
    if isinstance(expr, n.BinaryOp):
        return f"({_expr(expr.left)} {expr.op} {_expr(expr.right)})"
    if isinstance(expr, n.UnaryOp):
        op = "-" if expr.op == "NEG" else "NOT "
        return f"{op}{_expr(expr.operand)}"
    if isinstance(expr, n.InList):
        inner = ", ".join(_expr(i) for i in expr.items)
        neg = "NOT " if expr.negated else ""
        return f"{_expr(expr.expr)} {neg}IN ({inner})"
    if isinstance(expr, n.Between):
        neg = "NOT " if expr.negated else ""
        return (f"{_expr(expr.expr)} {neg}BETWEEN {_expr(expr.low)} "
                f"AND {_expr(expr.high)}")
    if isinstance(expr, n.IsNull):
        neg = "NOT " if expr.negated else ""
        return f"{_expr(expr.expr)} IS {neg}NULL"
    if isinstance(expr, n.FuncCall):
        arg = "*" if expr.star else _expr(expr.arg)
        return f"{expr.name}({arg})"
    return repr(expr)


def _describe(plan) -> str:
    if isinstance(plan, p.SeqScan):
        lock = "X" if plan.lock_exclusive else "S"
        return f"SeqScan {plan.binding.table} [table {lock} lock]"
    if isinstance(plan, p.IndexEqScan):
        keys = ", ".join(_expr(e) for e in plan.key_exprs)
        lock = "X" if plan.lock_exclusive else "S"
        return (f"IndexEqScan {plan.binding.table}.{plan.index.name}"
                f"({keys}) [row {lock} locks]")
    if isinstance(plan, p.IndexRangeScan):
        lo = _expr(plan.lo) if plan.lo is not None else "-inf"
        hi = _expr(plan.hi) if plan.hi is not None else "+inf"
        lo_b = "[" if plan.lo_inclusive else "("
        hi_b = "]" if plan.hi_inclusive else ")"
        lock = "X" if plan.lock_exclusive else "S"
        return (f"IndexRangeScan {plan.binding.table}.{plan.index.name} "
                f"{lo_b}{lo}, {hi}{hi_b} [row {lock} locks]")
    if isinstance(plan, p.Filter):
        return f"Filter {_expr(plan.predicate)}"
    if isinstance(plan, p.IndexLookupJoin):
        return "IndexLookupJoin"
    if isinstance(plan, p.HashJoin):
        keys = " AND ".join(
            f"{_expr(o)} = {_expr(i)}"
            for o, i in zip(plan.outer_keys, plan.inner_keys))
        return f"HashJoin on {keys}"
    if isinstance(plan, p.CrossJoin):
        return "CrossJoin"
    if isinstance(plan, p.Project):
        cols = ", ".join(plan.names)
        return f"Project [{cols}]"
    if isinstance(plan, p.Aggregate):
        groups = ", ".join(_expr(g) for g in plan.group_exprs) or "()"
        aggs = ", ".join(f"{a.func}({'*' if a.star else _expr(a.arg)})"
                         for a in plan.aggs)
        return f"Aggregate group by {groups} compute [{aggs}]"
    if isinstance(plan, p.Sort):
        keys = ", ".join(
            f"{_expr(e)} {'DESC' if d else 'ASC'}" for e, d in plan.keys)
        return f"Sort by {keys}"
    if isinstance(plan, p.Limit):
        return f"Limit {plan.limit} offset {plan.offset}"
    if isinstance(plan, p.Distinct):
        return "Distinct"
    if isinstance(plan, p.InsertPlan):
        return f"Insert into {plan.table.name} ({len(plan.rows)} rows)"
    if isinstance(plan, p.UpdatePlan):
        cols = ", ".join(
            plan.binding.schema.columns[pos].name
            for pos, _ in plan.assignments)
        return f"Update {plan.binding.table} set [{cols}]"
    if isinstance(plan, p.DeletePlan):
        return f"Delete from {plan.binding.table}"
    return type(plan).__name__


def _children(plan) -> List:
    if isinstance(plan, (p.Filter, p.Project, p.Aggregate, p.Sort,
                         p.Limit, p.Distinct)):
        return [plan.child]
    if isinstance(plan, (p.IndexLookupJoin, p.HashJoin, p.CrossJoin)):
        return [plan.outer, plan.inner]
    if isinstance(plan, (p.UpdatePlan, p.DeletePlan)):
        return [plan.source]
    if isinstance(plan, p.SelectPlan):
        return [plan.root]
    return []


def _estimate_suffix(node) -> str:
    """Estimates, when the optimizer stamped this node."""
    est = getattr(node, "est_rows", None)
    cost = getattr(node, "est_cost", None)
    if est is None or cost is None:
        return ""
    return f"  (~{est:.0f} rows, cost {cost:.1f})"


def explain(plan, verbose: bool = False) -> str:
    """Render a plan (or SelectPlan/DML plan) as an indented tree.

    Nodes the optimizer estimated carry a ``(~N rows, cost C)`` suffix.
    With ``verbose``, plans the optimizer considered and rejected
    (alternative access paths, join orders, join algorithms) are listed
    after the tree.
    """
    rejected: List[str] = []
    if isinstance(plan, p.SelectPlan):
        rejected = plan.rejected
        plan = plan.root
    lines: List[str] = []

    def walk(node, depth):
        lines.append("  " * depth + "-> " + _describe(node)
                     + _estimate_suffix(node))
        for child in _children(node):
            walk(child, depth + 1)

    walk(plan, 0)
    if verbose and rejected:
        lines.append("rejected plans:")
        for note in rejected:
            lines.append("  " + note)
    return "\n".join(lines)
