"""Logical query plan operators.

A logical plan is an immutable tree of relational operators.  This is the
representation that CloudViews works over: signatures hash these trees,
view matching rewrites them, and view buildout inserts :class:`Spool`
operators into them.

Operators follow the SCOPE engine's vocabulary from the paper's Figure 4:
Scan, Filter, Join, GroupBy(+Aggregate), plus the supporting cast needed for
real workloads (Project, Union, Distinct, Sort, Limit) and the two operators
that CloudViews itself introduces:

* :class:`ViewScan` -- a scan over a previously materialized common
  subexpression ("Replace common compute with scan", Figure 5);
* :class:`Spool` -- "a spool operator with two consumers ... one feeds into
  the rest of the query processing while the other materializes the common
  subexpression to stable storage" (Section 2.3).

:class:`Process` models SCOPE user-defined operators (UDOs), including the
operational-challenge cases from Section 4: non-deterministic user code and
deep library dependency chains, both of which make a subtree ineligible for
reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

from repro.common.errors import PlanError
from repro.plan.expressions import ColumnRef, Expr, FuncCall


@dataclass(frozen=True)
class LogicalPlan:
    """Base class for logical operators."""

    def __new__(cls, *args: object, **kwargs: object) -> "LogicalPlan":
        # A node's ``__dict__`` is built here, while one thread holds it.
        # CPython 3.11 builds it lazily on the first ``vars(node)``, and two
        # threads doing that at once (signing one shared plan) can both
        # build it over the same attribute storage, which then gets freed
        # twice and crashes the garbage collector later.
        node = object.__new__(cls)
        vars(node)
        return node

    def children(self) -> Tuple["LogicalPlan", ...]:
        return ()

    def with_children(self, children: Sequence["LogicalPlan"]) -> "LogicalPlan":
        if children:
            raise PlanError(f"{type(self).__name__} takes no children")
        return self

    @property
    def schema(self) -> Tuple[str, ...]:
        """Output column names, in order."""
        raise NotImplementedError

    @property
    def op_label(self) -> str:
        return type(self).__name__

    def walk(self) -> Iterator["LogicalPlan"]:
        """Pre-order traversal of this subtree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def describe(self) -> str:
        """One-line operator description used by :meth:`explain`."""
        return self.op_label

    def explain(self, indent: int = 0) -> str:
        """Pretty-print the plan tree (as surfaced to users in the paper's
        query monitoring tool)."""
        lines = ["  " * indent + self.describe()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.explain()


@dataclass(frozen=True)
class Scan(LogicalPlan):
    """Scan of a named dataset (a Cosmos *stream*).

    ``stream_guid`` is bound at compile time from the catalog; it identifies
    the concrete version of the input.  Strict signatures include it, which
    is how views are automatically invalidated when shared datasets are bulk
    updated (Section 1: "automatically replaces older materialized views
    with newer ones when the shared datasets are bulk updated").
    """

    dataset: str
    columns: Tuple[str, ...]
    stream_guid: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.columns

    def describe(self) -> str:
        guid = f" [{self.stream_guid[:8]}]" if self.stream_guid else ""
        return f"Scan {self.dataset}{guid}"


@dataclass(frozen=True)
class Filter(LogicalPlan):
    """Row filter with a boolean predicate."""

    child: LogicalPlan
    predicate: Expr

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Filter":
        (child,) = children
        return Filter(child, self.predicate)

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.child.schema

    def describe(self) -> str:
        return f"Filter {self.predicate.to_sql()}"


@dataclass(frozen=True)
class Project(LogicalPlan):
    """Projection: compute ``exprs`` and name them ``names``."""

    child: LogicalPlan
    exprs: Tuple[Expr, ...]
    names: Tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "exprs", tuple(self.exprs))
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.exprs) != len(self.names):
            raise PlanError("Project exprs and names must align")

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Project":
        (child,) = children
        return Project(child, self.exprs, self.names)

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.names

    def describe(self) -> str:
        cols = ", ".join(
            f"{e.to_sql()} AS {n}" if e.output_name() != n else n
            for e, n in zip(self.exprs, self.names))
        return f"Project {cols}"


@dataclass(frozen=True)
class Join(LogicalPlan):
    """Binary join in decomposed form.

    ``left_keys[i] = right_keys[i]`` are the equi-join conditions
    (``left_keys[i]`` references only left-side columns, ``right_keys[i]``
    only right-side columns); ``residual`` is any remaining predicate
    evaluated over the merged row.  ``drop_right`` lists right-side columns
    elided from the output (natural-join keys, which duplicate a left
    column).  Empty keys with no residual is a cross join.
    """

    left: LogicalPlan
    right: LogicalPlan
    left_keys: Tuple[Expr, ...] = ()
    right_keys: Tuple[Expr, ...] = ()
    residual: Optional[Expr] = None
    how: str = "inner"
    drop_right: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.how not in ("inner", "left"):
            raise PlanError(f"unsupported join type {self.how!r}")
        object.__setattr__(self, "left_keys", tuple(self.left_keys))
        object.__setattr__(self, "right_keys", tuple(self.right_keys))
        object.__setattr__(self, "drop_right", tuple(self.drop_right))
        if len(self.left_keys) != len(self.right_keys):
            raise PlanError("join key lists must have equal length")

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Join":
        left, right = children
        return Join(left, right, self.left_keys, self.right_keys,
                    self.residual, self.how, self.drop_right)

    @property
    def schema(self) -> Tuple[str, ...]:
        dropped = set(self.drop_right)
        return self.left.schema + tuple(
            c for c in self.right.schema if c not in dropped)

    def describe(self) -> str:
        conds = [f"{l.to_sql()} = {r.to_sql()}"
                 for l, r in zip(self.left_keys, self.right_keys)]
        if self.residual is not None:
            conds.append(self.residual.to_sql())
        on = f" ON {' AND '.join(conds)}" if conds else ""
        return f"Join[{self.how}]{on}"


@dataclass(frozen=True)
class GroupBy(LogicalPlan):
    """Grouped aggregation.

    ``keys`` are the grouping columns; ``aggregates`` are aggregate function
    calls; ``names`` names the output columns (keys first, then aggregates),
    matching the paper's split of "Group By" and "Aggregate" boxes in
    Figure 4.
    """

    child: LogicalPlan
    keys: Tuple[ColumnRef, ...]
    aggregates: Tuple[FuncCall, ...]
    names: Tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        object.__setattr__(self, "aggregates", tuple(self.aggregates))
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) != len(self.keys) + len(self.aggregates):
            raise PlanError("GroupBy names must cover keys then aggregates")

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "GroupBy":
        (child,) = children
        return GroupBy(child, self.keys, self.aggregates, self.names)

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.names

    def describe(self) -> str:
        keys = ", ".join(k.to_sql() for k in self.keys)
        aggs = ", ".join(a.to_sql() for a in self.aggregates)
        return f"GroupBy [{keys}] Aggregate [{aggs}]"


@dataclass(frozen=True)
class Union(LogicalPlan):
    """N-ary union (ALL or DISTINCT) of schema-compatible inputs."""

    inputs: Tuple[LogicalPlan, ...]
    all: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(self.inputs) < 2:
            raise PlanError("Union requires at least two inputs")
        arity = len(self.inputs[0].schema)
        for child in self.inputs[1:]:
            if len(child.schema) != arity:
                raise PlanError("Union inputs must have equal arity")

    def children(self) -> Tuple[LogicalPlan, ...]:
        return self.inputs

    def with_children(self, children: Sequence[LogicalPlan]) -> "Union":
        return Union(tuple(children), self.all)

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.inputs[0].schema

    def describe(self) -> str:
        return "UnionAll" if self.all else "Union"


@dataclass(frozen=True)
class Distinct(LogicalPlan):
    """Duplicate elimination over the full row."""

    child: LogicalPlan

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Distinct":
        (child,) = children
        return Distinct(child)

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.child.schema


@dataclass(frozen=True)
class Sort(LogicalPlan):
    """Total order on ``keys``; ``ascending`` aligns with ``keys``."""

    child: LogicalPlan
    keys: Tuple[ColumnRef, ...]
    ascending: Tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        asc = tuple(self.ascending) or tuple(True for _ in self.keys)
        if len(asc) != len(self.keys):
            raise PlanError("Sort ascending flags must align with keys")
        object.__setattr__(self, "ascending", asc)

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Sort":
        (child,) = children
        return Sort(child, self.keys, self.ascending)

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.child.schema

    def describe(self) -> str:
        keys = ", ".join(
            f"{k.to_sql()}{'' if asc else ' DESC'}"
            for k, asc in zip(self.keys, self.ascending))
        return f"Sort {keys}"


@dataclass(frozen=True)
class Limit(LogicalPlan):
    """Keep the first ``count`` rows."""

    child: LogicalPlan
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise PlanError("LIMIT must be non-negative")

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Limit":
        (child,) = children
        return Limit(child, self.count)

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.child.schema

    def describe(self) -> str:
        return f"Limit {self.count}"


@dataclass(frozen=True)
class Process(LogicalPlan):
    """A SCOPE user-defined operator (UDO).

    ``deterministic=False`` models UDOs containing ``DateTime.Now``,
    ``Guid.NewGuid()`` etc.; ``dependency_depth`` models the depth of the
    UDO's library dependency chain.  Section 4 ("Signature correctness"):
    "we skip any computation reuse if the dependency chain is too long or if
    a UDO is found to contain non-determinism."
    """

    child: LogicalPlan
    udo_name: str
    output_columns: Tuple[str, ...] = ()
    deterministic: bool = True
    dependency_depth: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "output_columns", tuple(self.output_columns))

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Process":
        (child,) = children
        return Process(child, self.udo_name, self.output_columns,
                       self.deterministic, self.dependency_depth)

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.output_columns or self.child.schema

    def describe(self) -> str:
        flags = []
        if not self.deterministic:
            flags.append("non-deterministic")
        if self.dependency_depth:
            flags.append(f"deps={self.dependency_depth}")
        suffix = f" ({', '.join(flags)})" if flags else ""
        return f"Process USING {self.udo_name}{suffix}"


@dataclass(frozen=True)
class ViewScan(LogicalPlan):
    """Scan over a materialized common subexpression.

    Produced by view matching; carries the view's observed row count so the
    optimizer can "update statistics from materialized view" (Figure 5).
    """

    signature: str
    view_path: str
    columns: Tuple[str, ...]
    rows: Optional[int] = None
    size_bytes: Optional[int] = None
    recurring: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.columns

    def describe(self) -> str:
        return f"ViewScan cloudview:{self.signature[:8]}"


@dataclass(frozen=True)
class Spool(LogicalPlan):
    """Spool with two consumers: pass-through plus materialization.

    Inserted by the follow-up (bottom-up) optimization phase when the
    insights service grants the view-creation lock.  ``view_path`` encodes
    the strict signature in the output path, exactly as Figure 5 describes
    ("Encode the strict signature in output path").
    """

    child: LogicalPlan
    signature: str
    view_path: str
    expiry_seconds: float = 7 * 86400.0

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Spool":
        (child,) = children
        return Spool(child, self.signature, self.view_path, self.expiry_seconds)

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.child.schema

    def describe(self) -> str:
        return f"Spool -> {self.view_path}"


def render_plan(plan: LogicalPlan, indent: int = 0) -> str:
    """:meth:`LogicalPlan.explain` with CloudView annotations on reuse and
    build sites -- the ``plan_text`` of a ``job.compiled`` event."""
    label = plan.describe()
    if isinstance(plan, ViewScan):
        label += "   <-- reused CloudView"
    elif isinstance(plan, Spool):
        label += "   <-- materializes CloudView"
    lines = ["  " * indent + label]
    for child in plan.children():
        lines.append(render_plan(child, indent + 1))
    return "\n".join(lines)


def contains_operator(plan: LogicalPlan, op_type: type) -> bool:
    """True if any node in ``plan`` is an instance of ``op_type``."""
    return any(isinstance(node, op_type) for node in plan.walk())
