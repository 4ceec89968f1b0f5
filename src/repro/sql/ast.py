"""Abstract syntax tree for the SCOPE-like SQL subset.

The AST is deliberately thin: scalar expressions reuse the plan-level
:mod:`repro.plan.expressions` nodes, so the plan builder only needs to
resolve names and lower relational structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple, Union as TypingUnion

if TYPE_CHECKING:  # avoid a runtime cycle with repro.plan
    from repro.plan.expressions import ColumnRef, Expr
else:  # pragma: no cover - annotations only
    ColumnRef = Expr = object


@dataclass(frozen=True)
class SelectItem:
    """One entry of a select list: an expression with an optional alias."""

    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    """A named dataset in FROM, with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SubqueryRef:
    """A parenthesized subquery in FROM; alias is required."""

    query: "SelectStmt"
    alias: str

    @property
    def binding_name(self) -> str:
        return self.alias


Relation = TypingUnion[TableRef, SubqueryRef]


@dataclass(frozen=True)
class JoinClause:
    """``[LEFT] JOIN <relation> [ON <condition>]``.

    A missing condition means a *natural join*: the builder equates all
    column names common to both sides, matching the bare ``JOIN`` syntax of
    the paper's Figure 4 queries.
    """

    relation: Relation
    condition: Optional[Expr] = None
    how: str = "inner"


@dataclass(frozen=True)
class ProcessClause:
    """``PROCESS USING <udo> [NONDETERMINISTIC] [DEPTH <n>]``.

    Models a SCOPE user-defined operator applied to the query result.
    """

    udo_name: str
    deterministic: bool = True
    dependency_depth: int = 0


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    column: ColumnRef
    ascending: bool = True


@dataclass(frozen=True)
class SelectStmt:
    """A single SELECT block (no set operators)."""

    items: Tuple[SelectItem, ...]
    relation: Relation
    joins: Tuple[JoinClause, ...] = ()
    where: Optional[Expr] = None
    group_by: Tuple[ColumnRef, ...] = ()
    having: Optional[Expr] = None
    distinct: bool = False
    process: Optional[ProcessClause] = None


@dataclass(frozen=True)
class Query:
    """Top-level statement: one or more SELECTs joined by UNION [ALL],
    with optional trailing ORDER BY / LIMIT."""

    selects: Tuple[SelectStmt, ...]
    union_all: bool = True
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
