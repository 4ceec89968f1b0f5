"""Column batches: the in-memory backend's one data representation.

A :class:`Batch` -- an ordered ``{column name: list}`` plus a length -- is
what the store keeps under a stream GUID or view path and what the
executor passes from operator to operator.  Rows (a ``dict`` per row)
exist only at the boundaries, built by :meth:`Batch.from_rows` and
:meth:`Batch.rows`.  The byte-accounting rule lives here too, as the
per-column :func:`measure`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.plan.expressions import Row

#: Kinds whose width is eight bytes whatever the value.
_EIGHT = frozenset({int, float, type(None)})


class Batch:
    """Columns of one length, and what has been measured of them.

    Column lists are shared between batches and blobs and never mutated:
    an operator that changes a column builds a new list.  ``measured``
    maps a column to ``(byte size, width)``; ``width`` is what every
    value of the column weighs when that is known (8 or 1), so a gather
    of it is ``width * n`` without a walk, and 0 when values differ.  A
    column absent from ``measured`` is walked by the first :meth:`size`.
    """

    __slots__ = ("columns", "length", "measured", "_size")

    def __init__(self, columns: Dict[str, list], length: int,
                 measured: Optional[Dict[str, Tuple[int, int]]] = None):
        self.columns = columns
        self.length = length
        self.measured = {} if measured is None else measured
        self._size: Optional[int] = None

    @classmethod
    def from_rows(cls, rows: Sequence[Row],
                  schema: Sequence[str] = ()) -> "Batch":
        """Transpose ``rows``; a key some row lacks reads as NULL there,
        and no rows at all are empty columns of ``schema``."""
        names = list(rows[0] if rows else schema)
        try:
            if set(map(len, rows)) - {len(names)}:
                raise KeyError
            columns = {name: [row[name] for row in rows] for name in names}
        except KeyError:
            names = list(dict.fromkeys(key for row in rows for key in row))
            columns = {name: [row.get(name) for row in rows]
                       for name in names}
        return cls(columns, len(rows))

    def rows(self) -> List[Row]:
        """The batch as fresh row dicts."""
        names = tuple(self.columns)
        if not names:
            return [{} for _ in range(self.length)]
        return [dict(zip(names, values))
                for values in zip(*self.columns.values())]

    def select(self, names: Sequence[str],
               renamed: Optional[Sequence[str]] = None) -> "Batch":
        """The columns ``names`` (an absent one reads as NULL), under the
        names ``renamed`` if given, with what is measured of them."""
        columns: Dict[str, list] = {}
        measured: Dict[str, Tuple[int, int]] = {}
        for name, new in zip(names, renamed or names):
            if name in self.columns:
                columns[new] = self.columns[name]
                if name in self.measured:
                    measured[new] = self.measured[name]
            else:
                columns[new] = [None] * self.length
                measured[new] = (8 * self.length, 8)
        return Batch(columns, self.length, measured)

    def take(self, index: Sequence[int], null: bool = False) -> "Batch":
        """The rows at ``index``, in that order.  With ``null``, position
        ``length`` is a NULL row (a left join's unmatched side)."""
        n = len(index)
        columns: Dict[str, list] = {}
        measured: Dict[str, Tuple[int, int]] = {}
        for name, values in self.columns.items():
            if null:
                values = values + [None]
            columns[name] = [values[i] for i in index]
            width = self.measured.get(name, (0, 0))[1]
            if width == 8 or (width and not null):
                measured[name] = (width * n, width)
        return Batch(columns, n, measured)

    def size(self) -> int:
        """Byte size of the batch; walks the columns not yet measured."""
        if self._size is None:
            measured = self.measured
            for name, values in self.columns.items():
                if name not in measured:
                    measured[name] = measure(values)
            self._size = sum(size for size, _ in measured.values())
        return self._size


def measure(values: list) -> Tuple[int, int]:
    """``(byte size, width)`` of one column.

    The width rule (strings are their character count, booleans one byte,
    everything else -- numbers, NULLs, dates -- eight bytes; :func:`_width`)
    is shared with the SQL-side accounting in :mod:`repro.backends.sqlite`,
    and the sum is *row-order invariant*: two backends that produce the
    same multiset of rows report the same byte count, which keeps per-node
    statistics, selection inputs, and the view-catalog digest
    backend-independent.  The exact built-in kinds are answered from the
    column's type set without calling the rule per value.
    """
    kinds = set(map(type, values))
    if kinds <= _EIGHT:
        return 8 * len(values), 8
    if kinds == {bool}:
        return len(values), 1
    if str in kinds and kinds - {str} <= _EIGHT:
        strings = (values if len(kinds) == 1
                   else [v for v in values if type(v) is str])
        return (sum(map(len, strings)) + strings.count("")
                + 8 * (len(values) - len(strings))), 0
    return sum(map(_width, values)), 0


def _width(value: object) -> int:
    """Width of one value of any type -- the rule itself."""
    if isinstance(value, bool):
        return 1
    if isinstance(value, str):
        return max(1, len(value))
    return 8
