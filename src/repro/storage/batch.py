"""Column batches: the in-memory backend's one data representation.

A :class:`Batch` -- ordered :class:`Columns` plus a length -- is what the
store keeps under a stream GUID or view path and what the executor passes
from operator to operator.  Rows (a ``dict`` per row) exist only at the
boundaries, built by :meth:`Batch.from_rows` and :meth:`Batch.rows`.  A
selection travels as a pending :class:`Gather` per column, and a column is
built only when an operator reads it.  The byte-accounting rule lives here
too, as the per-column :func:`measure`, and so does the one fact a blob
records of its values, :func:`constants`.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from repro.plan.expressions import Row

#: Kinds whose width is eight bytes whatever the value.
_EIGHT = frozenset({int, float, type(None)})

#: The exact kinds a constant column may hold (:func:`constants`).
_CONSTANT = frozenset({int, float, str, bool})

#: The facts of a batch that records none: shared, and never written.
NO_FACTS: Mapping[str, object] = MappingProxyType({})


class Gather(NamedTuple):
    """A column not built yet: ``base`` at ``index``.  With ``null``,
    position ``len(base)`` is a NULL (a left join's unmatched side)."""

    base: list
    index: Sequence[int]
    null: bool

    def build(self) -> list:
        base = self.base + [None] if self.null else self.base
        return list(map(base.__getitem__, self.index))


class Columns(Mapping):
    """A batch's ``{column name: list}``: each of ``entries`` a built list
    or a pending :class:`Gather`, built the first time it is read as
    ``columns[name]`` and kept.  ``.items()``, ``.values()`` and
    ``{**columns}`` read -- so build -- every column: what only moves
    columns works on ``entries``."""

    __slots__ = ("entries",)

    def __init__(self, entries: Dict[str, Union[list, Gather]]):
        self.entries = entries

    def __getitem__(self, name: str) -> list:
        entry = self.entries[name]
        if type(entry) is Gather:
            entry = self.entries[name] = entry.build()
        return entry

    def __contains__(self, name: object) -> bool:
        return name in self.entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def at(self, index: Sequence[int], null: bool = False) -> "Columns":
        """These columns at ``index`` (see :class:`Gather` for ``null``),
        building none: a pending gather's index is composed with
        ``index``, once per distinct pending index."""
        composed: Dict[Tuple[int, int], list] = {}
        entries: Dict[str, Union[list, Gather]] = {}
        for name, entry in self.entries.items():
            if type(entry) is not Gather:
                entries[name] = Gather(entry, index, null)
                continue
            base, inner, was_null = entry
            key = (id(inner), len(base))
            if key not in composed:
                if null:
                    inner = [*inner, len(base)]
                composed[key] = list(map(inner.__getitem__, index))
            entries[name] = Gather(base, composed[key], was_null or null)
        return Columns(entries)

    def build(self) -> None:
        """Build every pending column."""
        for name, entry in self.entries.items():
            if type(entry) is Gather:
                self.entries[name] = entry.build()


class Batch:
    """Columns of one length, and what has been measured of them.

    Column lists are shared between batches and blobs and never mutated:
    an operator that changes a column builds a new list.  ``measured``
    maps a column to ``(byte size, width)``; ``width`` is what every
    value of the column weighs when that is known (8, 1, or a string
    length), so a gather of it is ``width * n`` without a walk, and 0 when
    values differ.  A column absent from ``measured`` is sized by the
    first :meth:`size`.  ``facts`` maps a column to the one value every
    row holds (:func:`constants`), recorded when a blob is stored and
    carried by :meth:`select`, :meth:`take` and :meth:`beside`; a batch
    whose columns an operator computed records none.
    """

    __slots__ = ("columns", "length", "measured", "facts", "_size")

    def __init__(self, columns: Union[Columns, Dict[str, list]], length: int,
                 measured: Optional[Dict[str, Tuple[int, int]]] = None,
                 facts: Mapping[str, object] = NO_FACTS):
        self.columns = (columns if isinstance(columns, Columns)
                        else Columns(columns))
        self.length = length
        self.measured = {} if measured is None else measured
        self.facts = facts
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
        """The batch as fresh row dicts; a pending column is built for
        them and not kept, so the batch is left as it was."""
        names = tuple(self.columns)
        if not names:
            return [{} for _ in range(self.length)]
        return [dict(zip(names, values)) for values in zip(*(
            entry.build() if type(entry) is Gather else entry
            for entry in self.columns.entries.values()))]

    def select(self, names: Sequence[str],
               renamed: Optional[Sequence[str]] = None) -> "Batch":
        """The columns ``names`` (an absent one reads as NULL), under the
        names ``renamed`` if given, with what is measured of them."""
        entries = self.columns.entries
        columns: Dict[str, Union[list, Gather]] = {}
        measured: Dict[str, Tuple[int, int]] = {}
        for name, new in zip(names, renamed or names):
            if name in entries:
                columns[new] = entries[name]
                if name in self.measured:
                    measured[new] = self.measured[name]
            else:
                columns[new] = [None] * self.length
                measured[new] = (8 * self.length, 8)
        facts = self.facts and {new: self.facts[name] for name, new in zip(
            names, renamed or names) if name in self.facts}
        return Batch(Columns(columns), self.length, measured, facts)

    def take(self, index: Sequence[int], null: bool = False) -> "Batch":
        """The rows at ``index``, in that order, as pending gathers, with
        this batch's facts.  With ``null``, position ``length`` is a NULL
        row (a left join's unmatched side), and no fact holds."""
        n = len(index)
        measured = {name: (width * n, width)
                    for name, (_, width) in self.measured.items()
                    if width == 8 or (width and not null)}
        return Batch(self.columns.at(index, null), n, measured,
                     NO_FACTS if null else self.facts)

    def beside(self, other: "Batch") -> "Batch":
        """This batch's columns, then ``other``'s (of the same length; a
        name both hold is ``other``'s), with what is measured and known
        of them -- the raw entries merged, nothing built."""
        measured = {name: size for name, size in self.measured.items()
                    if name not in other.columns}
        measured.update(other.measured)
        facts = {**{name: value for name, value in self.facts.items()
                    if name not in other.columns},
                 **other.facts} if self.facts else other.facts
        return Batch(Columns({**self.columns.entries,
                              **other.columns.entries}),
                     other.length, measured, facts)

    def size(self) -> int:
        """Byte size of the batch; builds and walks the columns not yet
        measured (a recorded width sizes a column without building it)."""
        if self._size is None:
            measured = self.measured
            for name in self.columns:
                if name not in measured:
                    measured[name] = measure(self.columns[name])
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
    column's type set without calling the rule per value; a column of
    ``str`` alone whose values share one length ``L > 0`` claims width
    ``L`` (confirmed by a second pass only when the sum says it may).
    """
    kinds = set(map(type, values))
    if kinds <= _EIGHT:
        return 8 * len(values), 8
    if kinds == {bool}:
        return len(values), 1
    if kinds == {str}:
        total, width = sum(map(len, values)), len(values[0])
        if width and total == width * len(values) \
                and min(map(len, values)) == width:
            return total, width
        return total + values.count(""), 0
    if str in kinds and kinds - {str} <= _EIGHT:
        strings = [v for v in values if type(v) is str]
        return (sum(map(len, strings)) + strings.count("")
                + 8 * (len(values) - len(strings))), 0
    return sum(map(_width, values)), 0


def constants(columns: Mapping[str, list]) -> Mapping[str, object]:
    """``{name: value}`` for each non-empty built column of ``columns``
    whose every value equals ``value`` and is of its exact type, one of
    ``int``, ``float``, ``str`` and ``bool`` -- so no NULL, and no ``True``
    among ``1``s.  Such values compare alike against any constant (``0.0``
    and ``-0.0`` too); a NaN equals only itself, so counts only as one
    shared object."""
    return {name: values[0] for name, values in columns.items()
            if values and type(values[0]) in _CONSTANT
            and values.count(values[0]) == len(values)
            and len(set(map(type, values))) == 1} or NO_FACTS


def _width(value: object) -> int:
    """Width of one value of any type -- the rule itself."""
    if isinstance(value, bool):
        return 1
    if isinstance(value, str):
        return max(1, len(value))
    return 8
