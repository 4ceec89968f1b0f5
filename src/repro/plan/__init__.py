"""Logical plans: expressions, operators, AST lowering, normalization."""

from repro.plan.builder import PlanBuilder
from repro.plan.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    Like,
    Literal,
    Row,
    Star,
    UnaryOp,
    conjoin,
    conjuncts,
    rewrite,
)
from repro.plan.logical import (
    Distinct,
    Filter,
    GroupBy,
    Join,
    Limit,
    LogicalPlan,
    Process,
    Project,
    Scan,
    Sort,
    Spool,
    Union,
    ViewScan,
    contains_operator,
    render_plan,
)
from repro.plan.normalize import normalize

__all__ = [
    "PlanBuilder", "BinaryOp", "CaseWhen", "ColumnRef", "Expr", "FuncCall",
    "InList", "Like", "Literal", "Row", "Star", "UnaryOp", "conjoin", "conjuncts", "rewrite",
    "Distinct", "Filter", "GroupBy", "Join", "Limit", "LogicalPlan",
    "Process", "Project", "Scan", "Sort", "Spool", "Union", "ViewScan",
    "contains_operator", "render_plan", "normalize",
]
