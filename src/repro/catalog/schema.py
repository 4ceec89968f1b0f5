"""Table schemas and column metadata.

Cosmos datasets are *streams* of structured rows; a schema describes the
columns of one dataset.  Byte-size estimates here feed the optimizer's cost
model and the storage accounting used by view selection ("storage cost for
materialization", Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Tuple

from repro.common.errors import CatalogError

#: Approximate on-disk width of each supported column type, in bytes.
TYPE_WIDTHS: Dict[str, int] = {
    "int": 8,
    "float": 8,
    "bool": 1,
    "str": 24,
    "date": 10,
}


@dataclass(frozen=True)
class ColumnDef:
    """A named, typed column."""

    name: str
    dtype: str = "str"

    def __post_init__(self) -> None:
        if self.dtype not in TYPE_WIDTHS:
            raise CatalogError(f"unsupported column type {self.dtype!r} "
                               f"for column {self.name!r}")

    @property
    def width(self) -> int:
        return TYPE_WIDTHS[self.dtype]


@dataclass(frozen=True)
class TableSchema:
    """Ordered collection of columns for one dataset."""

    name: str
    columns: Tuple[ColumnDef, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in schema {self.name!r}")
        if not self.columns:
            raise CatalogError(f"schema {self.name!r} has no columns")

    @cached_property
    def column_names(self) -> Tuple[str, ...]:
        # Frozen, so computed once: every plan-template hit reads it per Scan.
        return tuple(c.name for c in self.columns)

    @property
    def row_width(self) -> int:
        """Estimated bytes per row."""
        return sum(c.width for c in self.columns)


def schema_of(name: str, columns: Iterable[Tuple[str, str]]) -> TableSchema:
    """Convenience constructor: ``schema_of("Sales", [("Price", "float")])``."""
    return TableSchema(name, tuple(ColumnDef(n, t) for n, t in columns))
