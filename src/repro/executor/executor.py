"""Column-batch executor for logical plans.

Executes a bound logical plan against the simulated :class:`DataStore` and
returns both the result rows and per-operator runtime statistics.  Every
operator takes and returns a :class:`~repro.storage.batch.Batch`; rows
exist only where data enters or leaves -- the job's result, a UDO's input
and output, captured node rows -- and are built fresh there.  The
statistics become the "runtime metrics as seen in the history" that
CloudViews pre-joins with subexpressions in its workload repository
(Section 2.3) -- reuse decisions are made from *observed* numbers, never
from estimates.

Spool operators perform their double duty here: the child's batch flows
to the parent *and* is written, every column built, to stable storage
under the view path, exactly the online-materialization side effect of
Section 2.3.  Storing it records its constant columns (``Batch.facts``),
which the batch carries on to the parent as every later read does.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.executor.udo import UdoRegistry, default_registry
from repro.plan.expressions import (BinaryOp, ColumnRef, Expr, FuncCall,
                                    Literal, Row, conjoin, conjuncts)
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
)
from repro.storage.batch import Batch
from repro.storage.store import DataStore


@dataclass
class OperatorStats:
    """Observed runtime numbers for one operator instance."""

    operator: str
    rows_in: int
    rows_out: int
    bytes_out: int


@dataclass
class SpoolOutput:
    """Record of one view materialized during execution."""

    signature: str
    view_path: str
    row_count: int
    size_bytes: int
    schema: Tuple[str, ...]


@dataclass
class ExecutionResult:
    """Result rows plus the telemetry the engine logs per job."""

    rows: List[Row]
    node_stats: List[Tuple[LogicalPlan, OperatorStats]]
    spooled: List[SpoolOutput] = field(default_factory=list)
    views_read: List[str] = field(default_factory=list)
    #: Per-node output by ``id(node)``, populated only when the executor
    #: was created with ``capture_rows=True`` (shared batch execution
    #: stores these; ``.rows()`` of one is that node's rows).
    node_batches: Dict[int, Batch] = field(default_factory=dict)

    @property
    def input_rows(self) -> int:
        """Rows read as job inputs: base dataset scans plus materialized
        views (a reused view is a stored input too -- just a much smaller
        one, which is where the paper's input-size reduction comes from)."""
        return sum(s.rows_out for node, s in self.node_stats
                   if isinstance(node, (Scan, ViewScan)))

    @property
    def input_bytes(self) -> int:
        return sum(s.bytes_out for node, s in self.node_stats
                   if isinstance(node, (Scan, ViewScan)))

    @property
    def data_read_bytes(self) -> int:
        """All bytes read: base inputs, views, and intermediate flows."""
        return sum(s.bytes_out for _, s in self.node_stats)


class Executor:
    """Runs logical plans over the simulated store, a batch at a time.

    Five rules keep it one path and its numbers exact: *rows exist only
    at boundaries*; *a column is measured at most once* -- a column that
    passes through (or is renamed) keeps its recorded size, a gather of a
    fixed-width column is ``width * n``, and an operator that dropped
    nothing returns its child's batch -- and *a column is built only when
    an operator reads it*: a ``Filter``, join, ``Sort`` or ``Limit`` hands
    on pending gathers (:class:`~repro.storage.batch.Columns`), and what
    stores a batch builds the rest; *an expression is compiled once
    per operator execution* into a function of the batch; *every
    operator emits rows in one stated order* (a join: left order, each
    left row with its right matches in right order; a group: first
    appearance), which is what keeps float aggregates and an unordered
    ``LIMIT`` bit-identical; and *a column fact is recorded once, when a
    blob is stored* (``Batch.facts``): a ``Filter`` drops the conjuncts
    a constant column decides true for every row.  Every join hashes
    its right side into hit lists; a group over one key column that
    hashes as itself and one aggregate counts or buckets in one pass.
    What the input shows picks the shape.  Which physical join a
    SCOPE-like optimizer *would* pick is modelled where the workload
    repository is filled in (:mod:`repro.core.runner`), not here.
    """

    def __init__(self, store: DataStore,
                 udos: Optional[UdoRegistry] = None,
                 capture_rows: bool = False):
        self.store = store
        self.udos = udos or default_registry()
        self.capture_rows = capture_rows

    def execute(self, plan: LogicalPlan) -> ExecutionResult:
        """Execute ``plan``: its rows and statistics, and with
        ``capture_rows`` each node's output batch."""
        result = ExecutionResult(rows=[], node_stats=[])
        result.rows = self._run(plan, result).rows()
        return result

    # ------------------------------------------------------------------ #
    # dispatch

    def _run(self, plan: LogicalPlan, result: ExecutionResult) -> Batch:
        """Run ``plan``; a handler returns ``(rows_in, output batch)``
        and the columns it built anew are measured here."""
        handler = _HANDLERS.get(type(plan))
        if handler is None:
            raise ExecutionError(
                f"no executor for operator {type(plan).__name__}")
        rows_in, batch = handler(self, plan, result)
        result.node_stats.append((plan, OperatorStats(
            plan.op_label, rows_in, batch.length, batch.size())))
        if self.capture_rows:
            result.node_batches[id(plan)] = batch
        return batch

    # ------------------------------------------------------------------ #
    # operators

    def _scan(self, plan: Scan, result: ExecutionResult):
        if plan.stream_guid is None:
            raise ExecutionError(
                f"scan of {plan.dataset!r} was not bound to a stream GUID")
        return 0, self.store.read_columns(plan.stream_guid, plan.columns)

    def _view_scan(self, plan: ViewScan, result: ExecutionResult):
        batch = self.store.read(plan.view_path)
        result.views_read.append(plan.signature)
        return 0, batch

    def _filter(self, plan: Filter, result: ExecutionResult):
        child = self._run(plan.child, result)
        predicate = _undecided(plan.predicate, child.facts)
        if predicate is None:
            return child.length, child
        keep = predicate.compile()(child.columns, child.length)
        return child.length, _selected(child, list(compress(
            range(child.length), keep)))

    def _project(self, plan: Project, result: ExecutionResult):
        child = self._run(plan.child, result)
        columns = {name: expr.compile()(child.columns, child.length)
                   for expr, name in zip(plan.exprs, plan.names)}
        # A column handed through unchanged keeps what was measured of it
        # (looked up once the expressions have built what they read).
        known = {id(values): child.measured[name]
                 for name, values in child.columns.entries.items()}
        return child.length, Batch(columns, child.length, {
            name: known[id(values)] for name, values in columns.items()
            if id(values) in known})

    def _join(self, plan: Join, result: ExecutionResult):
        left = self._run(plan.left, result)
        right = self._run(plan.right, result)
        return left.length + right.length, join_batches(plan, left, right)

    def _group_by(self, plan: GroupBy, result: ExecutionResult):
        child = self._run(plan.child, result)
        keys = _key_columns(plan.keys, child)
        if keys:
            hashed = _keys(keys, child.length, _widths(plan.keys, child))
            if hashed is keys[0] and len(plan.aggregates) == 1:
                return child.length, _one_key_groups(plan, child, hashed)
            groups: Dict[object, List[int]] = defaultdict(list)
            for position, key in enumerate(hashed):
                groups[key].append(position)
            members = list(groups.values())
        else:
            # Global aggregation always yields exactly one group.
            members = [range(child.length)]
        first = [positions[0] for positions in members] if keys else ()
        columns = {key.name: list(map(values.__getitem__, first))
                   for key, values in zip(plan.keys, keys)}
        for name, agg in zip(plan.names[len(keys):], plan.aggregates):
            if agg.name == "COUNT" and not agg.args:
                columns[name] = list(map(len, members))
                continue
            argument = (agg.args[0].compile()(child.columns, child.length)
                        if agg.args else None)
            columns[name] = [
                _aggregate(agg, () if argument is None else
                           map(argument.__getitem__, positions))
                for positions in members]
        return child.length, Batch(columns, len(members))

    def _union(self, plan: Union, result: ExecutionResult):
        # Columns align to the union's output schema by position: a
        # rename, so every input's sizes carry over and add up.
        parts = [self._run(child, result).select(child.schema, plan.schema)
                 for child in plan.inputs]
        columns: Dict[str, list] = {}
        measured: Dict[str, Tuple[int, int]] = {}
        for name in plan.schema:
            columns[name] = list(chain.from_iterable(
                part.columns[name] for part in parts))
            sizes, widths = zip(*(part.measured[name] for part in parts))
            measured[name] = (sum(sizes),
                              widths[0] if len(set(widths)) == 1 else 0)
        rows = sum(part.length for part in parts)
        return rows, Batch(columns, rows, measured)

    def _distinct(self, plan: Distinct, result: ExecutionResult):
        child = self._run(plan.child, result)
        n = child.length
        keys = _row_keys([ColumnRef(name) for name in dict.fromkeys(
            plan.schema) if name in child.columns], child)
        # Written back to front, a key keeps its first position.
        first = dict(zip(reversed(keys), range(n - 1, -1, -1)))
        return n, _selected(child, sorted(first.values()))

    def _sort(self, plan: Sort, result: ExecutionResult):
        child = self._run(plan.child, result)
        order = list(range(child.length))
        # Stable sort, applied from the least-significant key backwards.
        for key, ascending in reversed(list(zip(plan.keys, plan.ascending))):
            (ranks,) = _ranked(key.compile()(child.columns, child.length))
            order.sort(key=ranks.__getitem__, reverse=not ascending)
        # A permutation weighs what its input does.
        return child.length, Batch(child.take(order).columns, child.length,
                                   child.measured)

    def _limit(self, plan: Limit, result: ExecutionResult):
        child = self._run(plan.child, result)
        return child.length, _selected(
            child, range(child.length)[:plan.count])

    def _process(self, plan: Process, result: ExecutionResult):
        child = self._run(plan.child, result)
        rows = self.udos.get(plan.udo_name)(child.rows())
        return child.length, Batch.from_rows(rows, plan.schema)

    def _spool(self, plan: Spool, result: ExecutionResult):
        child = self._run(plan.child, result)
        self.store.put_batch(plan.view_path, child)
        result.spooled.append(SpoolOutput(
            plan.signature, plan.view_path, child.length, child.size(),
            plan.schema))
        return child.length, child


_HANDLERS = {
    Scan: Executor._scan,
    ViewScan: Executor._view_scan,
    Filter: Executor._filter,
    Project: Executor._project,
    Join: Executor._join,
    GroupBy: Executor._group_by,
    Union: Executor._union,
    Distinct: Executor._distinct,
    Sort: Executor._sort,
    Limit: Executor._limit,
    Process: Executor._process,
    Spool: Executor._spool,
}


def _selected(batch: Batch, kept: Sequence[int]) -> Batch:
    """``batch`` at the ascending positions ``kept`` -- itself (the same
    multiset, so the same size) exactly when nothing was dropped."""
    return batch if len(kept) == batch.length else batch.take(kept)


_COMPARES = frozenset({"=", "<>", "<", "<=", ">", ">="})


def _undecided(predicate: Expr, facts: Mapping) -> Optional[Expr]:
    """``predicate`` without the conjuncts ``facts`` decide true for every
    row (:func:`_holds`), ``None`` if that is all of them.  A dropped
    conjunct kept every row, so the ones after it see the rows they saw."""
    parts = conjuncts(predicate) if facts else []
    kept = [part for part in parts if not _holds(part, facts)]
    return predicate if len(kept) == len(parts) else conjoin(kept)


def _holds(part: Expr, facts: Mapping) -> bool:
    """Whether ``part`` is ``column <comparison> non-NULL literal`` over a
    constant column and :meth:`Expr.evaluate` finds it ``True`` for the
    constant.  A false or raising one is left to run over the rows, so
    its error surfaces where it would."""
    try:
        return type(part) is BinaryOp and part.op in _COMPARES \
            and type(part.left) is ColumnRef and part.left.key in facts \
            and type(part.right) is Literal and part.right.value is not None \
            and part.evaluate({part.left.key: facts[part.left.key]}) is True
    except Exception:
        return False


# --------------------------------------------------------------------- #
# join and aggregation kernels


def _key_columns(exprs: Sequence[Expr], batch: Batch) -> List[list]:
    return [expr.compile()(batch.columns, batch.length) for expr in exprs]


def _widths(exprs: Sequence[Expr], batch: Batch) -> List[int]:
    """The width ``batch`` records for each of ``exprs`` that names one of
    its columns, else 0."""
    return [batch.measured.get(expr.key, (0, 0))[1]
            if isinstance(expr, ColumnRef) else 0 for expr in exprs]


def _keys(columns: Sequence[list], n: int, widths: Sequence[int]) -> list:
    """One hashable key per row from its values in ``columns``: the value
    itself for a single column, else the tuple (``()`` for no column).  A
    column with a claimed width (``widths``, by position) holds numbers,
    NULLs, booleans or plain strings only, so it skips the type walk."""
    columns = [values if width or set(map(type, values)) <= _HASHABLE
               else list(map(_hashable, values))
               for values, width in zip(columns, widths)]
    if len(columns) == 1:
        return columns[0]
    return list(zip(*columns)) if columns else [()] * n


def _row_keys(exprs: Sequence[Expr], batch: Batch) -> list:
    return _keys(_key_columns(exprs, batch), batch.length,
                 _widths(exprs, batch))


def join_batches(plan: Join, left: Batch, right: Batch) -> Batch:
    """``plan`` over its two inputs, by hashing the right side.

    Equi-keys match as dictionary keys do -- Python ``==``, so ``None``
    matches ``None`` and ``1 == 1.0 == True``, the rule the SQLite
    lowering states with ``IS`` -- and a join without keys is the
    one-bucket case.  Output order: left rows in their order, each with
    its matching right rows in theirs.  The residual runs over the
    gathered candidates.
    """
    index: Dict[object, List[int]] = defaultdict(list)
    for position, key in enumerate(_row_keys(plan.right_keys, right)):
        index[key].append(position)
    hits = list(map(index.get, _row_keys(plan.left_keys, left), repeat(())))
    outer = plan.how == "left"
    if plan.residual is not None:
        out = _joined(plan, left, right, hits, False)
        keep = plan.residual.compile()(out.columns, out.length)
        if not outer:
            return _selected(out, list(compress(range(out.length), keep)))
        passed = iter(keep)
        hits = [list(compress(hit, islice(passed, len(hit))))
                for hit in hits]
    return _joined(plan, left, right, hits, outer)


def _joined(plan: Join, left: Batch, right: Batch,
            hits: List[Sequence[int]], outer: bool) -> Batch:
    """The join's output for ``hits`` -- per left row, the right positions
    it is emitted with: each side a pending gather, beside the other; with
    ``outer`` an unmatched left row is NULL-extended (position
    ``right.length`` is a NULL row)."""
    if outer:
        unmatched = (right.length,)
        hits = [hit or unmatched for hit in hits]
    taken = list(chain.from_iterable(hits))
    matched = list(map(len, hits))
    if len(taken) + matched.count(0) != left.length:
        left = left.take(list(chain.from_iterable(
            map(repeat, range(left.length), matched))))
    elif len(taken) != left.length:
        # No left row matched twice: its count selects it.
        left = left.take(list(compress(range(left.length), matched)))
    dropped = set(plan.drop_right)
    right = right.select([name for name in right.columns
                          if name not in dropped])
    return left.beside(right.take(taken, null=outer))


def _one_key_groups(plan: GroupBy, child: Batch, keys: list) -> Batch:
    """``plan`` over one key column that hashes as itself and one
    aggregate, in one pass over the keys: ``COUNT(*)`` is a
    :class:`Counter` of them, any other aggregate folds its argument
    values bucketed per key.  Groups, their first-seen key objects and
    each group's values keep the general path's order, so the folds are
    bit-identical."""
    (agg,) = plan.aggregates
    if agg.name == "COUNT" and not agg.args:
        groups: Dict[object, object] = Counter(keys)
        folded = list(groups.values())
    else:
        groups = defaultdict(list)
        # An argument-less call folds NULLs, which it drops: as ``()``.
        for group, value in zip(keys, agg.args[0].compile()(
                child.columns, child.length) if agg.args else repeat(None)):
            groups[group].append(value)
        folded = [_aggregate(agg, values) for values in groups.values()]
    return Batch({plan.keys[0].name: list(groups), plan.names[1]: folded},
                 len(groups))


#: An aggregate over the non-NULL values of a non-empty group.
_FOLDS = {"SUM": sum, "MIN": min, "MAX": max,
          "AVG": lambda values: sum(values) / len(values)}


def _aggregate(agg: FuncCall, values) -> object:
    """``agg`` over one group's argument values (none for an
    argument-less call)."""
    values = [v for v in values if v is not None]
    if agg.distinct:
        unique: Dict[object, object] = {}
        for value in values:
            unique.setdefault(_hashable(value), value)
        values = list(unique.values())
    if agg.name == "COUNT":
        return len(values)
    if not values:
        return None
    if agg.name not in _FOLDS:
        raise ExecutionError(f"unknown aggregate {agg.name!r}")
    return _FOLDS[agg.name](values)


# --------------------------------------------------------------------- #
# small helpers

#: Kinds that hash as themselves.
_HASHABLE = frozenset({int, float, str, bool, type(None)})


def _hashable(value: object) -> object:
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value


def _sort_key(value: object) -> tuple:
    """Total order with NULLs first and mixed types segregated."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, str(value))


def _ranked(*columns: list) -> Sequence[list]:
    """``columns`` as values that compare as their :func:`_sort_key`
    does: themselves when all hold numbers alone or strings alone."""
    kinds = set().union(*(map(type, values) for values in columns))
    if kinds <= {int, float} or kinds == {str}:
        return columns
    return [list(map(_sort_key, values)) for values in columns]
