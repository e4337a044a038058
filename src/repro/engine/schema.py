"""Catalog objects: columns, table schemas, databases.

A MiniSQL :class:`Engine` hosts many :class:`DatabaseSchema` objects (one
per tenant application), each containing :class:`TableSchema` definitions.
The catalog is deliberately simple — the paper's workloads never alter
schemas online.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.engine.types import SqlType
from repro.errors import SchemaError


@dataclass(frozen=True)
class Column:
    """One column definition."""

    name: str
    sql_type: SqlType
    nullable: bool = True


@dataclass
class IndexDef:
    """A named index over one or more columns of a table."""

    name: str
    columns: Tuple[str, ...]
    unique: bool = False


class TableSchema:
    """Schema of a single table: columns, primary key, secondary indexes."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str] = (),
    ):
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column in table {name!r}")
        self.name = name
        self.columns: List[Column] = list(columns)
        self._positions: Dict[str, int] = {c.name: i for i, c in enumerate(columns)}
        for key_col in primary_key:
            if key_col not in self._positions:
                raise SchemaError(
                    f"primary key column {key_col!r} not in table {name!r}"
                )
        self.primary_key: Tuple[str, ...] = tuple(primary_key)
        # The primary key never changes after construction, so its column
        # positions are computed once (pk_key runs per row on hot paths).
        self._pk_positions: Tuple[int, ...] = tuple(
            self._positions[c] for c in self.primary_key
        )
        self._index_positions: Dict[str, Tuple[int, ...]] = {}
        self._touching_cache: Dict[Tuple[int, ...], Tuple[str, ...]] = {}
        self.indexes: Dict[str, IndexDef] = {}
        if self.primary_key:
            self.indexes["__pk__"] = IndexDef("__pk__", self.primary_key, unique=True)

    def column_position(self, column: str) -> int:
        if column not in self._positions:
            raise SchemaError(f"no column {column!r} in table {self.name!r}")
        return self._positions[column]

    def has_column(self, column: str) -> bool:
        return column in self._positions

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def pk_positions(self) -> Tuple[int, ...]:
        return self._pk_positions

    def index_positions(self, index: IndexDef) -> Tuple[int, ...]:
        """Column positions of an index's key, memoized by index name."""
        positions = self._index_positions.get(index.name)
        if positions is None:
            positions = tuple(self._positions[c] for c in index.columns)
            self._index_positions[index.name] = positions
        return positions

    def indexes_touching(self, positions: Sequence[int]) -> Tuple[str, ...]:
        """Names of indexes whose key includes any of ``positions``.

        Memoized: compiled UPDATE closures call this once per plan to
        know which indexes an assignment set can invalidate, instead of
        re-deriving key positions per row.
        """
        key = tuple(sorted(set(positions)))
        cached = self._touching_cache.get(key)
        if cached is None:
            wanted = set(key)
            cached = tuple(
                name for name, index in self.indexes.items()
                if wanted.intersection(self.index_positions(index))
            )
            self._touching_cache[key] = cached
        return cached

    def add_index(self, index: IndexDef) -> None:
        if index.name in self.indexes:
            raise SchemaError(f"duplicate index {index.name!r} on {self.name!r}")
        for col in index.columns:
            if col not in self._positions:
                raise SchemaError(
                    f"index column {col!r} not in table {self.name!r}"
                )
        self.indexes[index.name] = index
        self._touching_cache.clear()


@dataclass
class DatabaseSchema:
    """One tenant database: a named set of tables."""

    name: str
    tables: Dict[str, TableSchema] = field(default_factory=dict)

    def add_table(self, schema: TableSchema) -> None:
        if schema.name in self.tables:
            raise SchemaError(
                f"table {schema.name!r} already exists in {self.name!r}"
            )
        self.tables[schema.name] = schema

    def table(self, name: str) -> TableSchema:
        if name not in self.tables:
            raise SchemaError(f"no table {name!r} in database {self.name!r}")
        return self.tables[name]
