"""The from-scratch statistics recount (the ``TableStats.rebuild``
classmethod that ``repro/engine/stats.py`` held while only tests called
it, verbatim but for ``cls`` named): ``TableStats`` fed every row
through ``add_row``. Production maintains statistics incrementally and
never recounts; ``tests/property/test_stats_property.py``,
``test_stats.py`` and ``test_insert_many_property.py`` compare it with
this recount.
"""

from typing import Any, Iterable, Sequence

from repro.engine.stats import TableStats


def rebuild(n_columns: int, rows: Iterable[Sequence[Any]]) -> TableStats:
    """From-scratch recount (the test oracle)."""
    stats = TableStats(n_columns)
    for row in rows:
        stats.add_row(row)
    return stats
