"""Per-table catalogue statistics for cost-based planning.

Each table carries a :class:`TableStats`: a row count plus one
:class:`ColumnStats` sketch per column (distinct-value counts, null
count, min/max bounds). The sketches are *exact* value-count maps — the
paper's premise is many small application databases, so per-tenant
cardinalities stay modest and exactness buys the optimizer literal-value
selectivities for free (an equality against a literal reads the value's
actual frequency, like a complete histogram).

Maintenance is incremental and commit-driven, never a rescan:

* :meth:`Engine.commit <repro.engine.engine.Engine.commit>` replays the
  transaction's undo log as stat deltas (insert adds the after-image,
  delete removes the before-image, update does both), so aborted
  transactions never touch the sketches and uncommitted changes are
  invisible to the planner;
* a bulk load (a tenant's initial load, a replica copy landing) adds
  its rows one column at a time, :meth:`TableStats.add_rows`.

Min/max shrink correctly on delete: bounds are invalidated when the
boundary value's count reaches zero and lazily recomputed over the
distinct values (never the rows). ``tests/property/test_stats_property.py``
pins incremental maintenance to a from-scratch recount
(``tests/oracles/stats_rebuild.py``) after randomized statement soaks.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


class _UnknownType:
    """Sentinel: a bound/probe value not known at plan time (a Param)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unknown>"


UNKNOWN = _UnknownType()

# Fallback selectivities when a probe value is unknown at plan time.
DEFAULT_CLOSED_RANGE_SEL = 0.30
DEFAULT_OPEN_RANGE_SEL = 0.40


class ColumnStats:
    """Exact distinct-value sketch of one column: counts, nulls, bounds."""

    __slots__ = ("counts", "nulls", "non_null", "_min", "_max", "_stale")

    def __init__(self):
        self.counts: Dict[Any, int] = {}
        self.nulls = 0
        self.non_null = 0
        self._min: Any = None
        self._max: Any = None
        self._stale = False

    # -- incremental maintenance -------------------------------------------

    def add(self, value: Any) -> None:
        if value is None:
            self.nulls += 1
            return
        self.non_null += 1
        count = self.counts.get(value)
        if count is None:
            self.counts[value] = 1
            if not self._stale:
                if self.non_null == 1:
                    self._min = self._max = value
                else:
                    if value < self._min:
                        self._min = value
                    if value > self._max:
                        self._max = value
        else:
            self.counts[value] = count + 1

    def add_many(self, values: Iterable[Any]) -> None:
        """``add`` of each value in turn: the same counts in first-seen
        order, nulls and bounds."""
        batch = Counter(values)
        self.nulls += batch.pop(None, 0)
        if not batch:
            return
        counts = self.counts
        new = ([value for value in batch if value not in counts] if counts
               else list(batch))
        if not self._stale and new:
            if self.non_null:
                self._min = min(self._min, *new)
                self._max = max(self._max, *new)
            else:
                self._min, self._max = min(new), max(new)
        self.non_null += sum(batch.values())
        if counts:
            for value, n in batch.items():
                counts[value] = counts.get(value, 0) + n
        else:
            counts.update(batch)

    def remove(self, value: Any) -> None:
        if value is None:
            self.nulls -= 1
            return
        self.non_null -= 1
        count = self.counts[value] - 1
        if count:
            self.counts[value] = count
        else:
            del self.counts[value]
            # A boundary value disappeared: bounds are recomputed lazily
            # over the remaining distinct values (never the rows).
            if not self._stale and (value == self._min or value == self._max):
                self._stale = True

    def _refresh_bounds(self) -> None:
        if self.counts:
            self._min = min(self.counts)
            self._max = max(self.counts)
        else:
            self._min = self._max = None
        self._stale = False

    # -- accessors ----------------------------------------------------------

    @property
    def distinct(self) -> int:
        return len(self.counts)

    @property
    def min(self) -> Any:
        if self._stale:
            self._refresh_bounds()
        return self._min if self.counts else None

    @property
    def max(self) -> Any:
        if self._stale:
            self._refresh_bounds()
        return self._max if self.counts else None

    # -- selectivity estimation --------------------------------------------
    # Fractions are of the table's rows (NULLs never satisfy a
    # comparison, so they count in the denominator only).

    def eq_fraction(self, value: Any, row_count: int) -> float:
        if row_count <= 0:
            return 0.0
        if value is UNKNOWN:
            return 1.0 / max(1, self.distinct)
        try:
            matched = self.counts.get(value, 0)
        except TypeError:  # unhashable probe value
            return 1.0 / max(1, self.distinct)
        return matched / row_count

    def range_fraction(self, lo: Any, hi: Any, lo_inc: bool, hi_inc: bool,
                       row_count: int) -> float:
        """Fraction of rows inside a range; ``None`` bound = unbounded."""
        if row_count <= 0:
            return 0.0
        if lo is UNKNOWN or hi is UNKNOWN:
            if lo is not None and hi is not None:
                return DEFAULT_CLOSED_RANGE_SEL
            return DEFAULT_OPEN_RANGE_SEL
        matched = 0
        try:
            for value, count in self.counts.items():
                if lo is not None and (value < lo
                                       or (value == lo and not lo_inc)):
                    continue
                if hi is not None and (value > hi
                                       or (value == hi and not hi_inc)):
                    continue
                matched += count
        except TypeError:  # incomparable probe type
            return DEFAULT_CLOSED_RANGE_SEL
        return matched / row_count

    def snapshot(self) -> Dict[str, Any]:
        return {
            "distinct": self.distinct,
            "nulls": self.nulls,
            "non_null": self.non_null,
            "min": self.min,
            "max": self.max,
            "counts": dict(self.counts),
        }


class TableStats:
    """Row count plus per-column sketches for one table."""

    __slots__ = ("row_count", "columns")

    def __init__(self, n_columns: int):
        self.row_count = 0
        self.columns: List[ColumnStats] = [ColumnStats()
                                           for _ in range(n_columns)]

    # -- delta application --------------------------------------------------

    def add_row(self, row: Sequence[Any]) -> None:
        self.row_count += 1
        for column, value in zip(self.columns, row):
            column.add(value)

    def add_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """``add_row`` of each row, one column at a time."""
        self.row_count += len(rows)
        for pos, column in enumerate(self.columns):
            column.add_many(map(itemgetter(pos), rows))

    def remove_row(self, row: Sequence[Any]) -> None:
        self.row_count -= 1
        for column, value in zip(self.columns, row):
            column.remove(value)

    def update_row(self, before: Sequence[Any], after: Sequence[Any]) -> None:
        for column, old, new in zip(self.columns, before, after):
            if old != new or (old is None) != (new is None):
                column.remove(old)
                column.add(new)

    def apply_delta(self, kind: str, before, after) -> None:
        """Apply one undo-log entry as a committed-state delta."""
        if kind == "insert":
            self.add_row(after)
        elif kind == "delete":
            self.remove_row(before)
        else:
            self.update_row(before, after)

    def snapshot(self) -> Dict[str, Any]:
        """Comparable view of the full statistics state."""
        return {
            "row_count": self.row_count,
            "columns": [c.snapshot() for c in self.columns],
        }
