"""The reference engines: a production ``Engine`` with one stage swapped.

``Engine`` has two seams, each one overridable method, and each engine
here overrides exactly one of them — so a differential test that builds a
production engine and one of these isolates the stage it compares.
"""

from __future__ import annotations

from repro.engine import Engine
from repro.engine import planner as pl

from tests.oracles import tree_executor
from tests.oracles.heuristic_planner import HeuristicPlanner

_INTERPRET = {
    pl.SelectPlan: tree_executor.execute_select,
    pl.InsertPlan: tree_executor.execute_insert,
    pl.UpdatePlan: tree_executor.execute_update,
    pl.DeletePlan: tree_executor.execute_delete,
}


class InterpretedEngine(Engine):
    """Production planner; statements run on the tree-walking interpreter."""

    def _runner(self, plan):
        execute = _INTERPRET[type(plan)]
        return lambda ctx: execute(plan, ctx)


class HeuristicEngine(Engine):
    """Plans with the syntactic reference planner; production executor."""

    def _planner_for(self, database):
        return HeuristicPlanner(database.schema)
