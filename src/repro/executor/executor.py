"""Row-level interpreter for logical plans.

Executes a bound logical plan against the simulated :class:`DataStore` and
returns both the result rows and per-operator runtime statistics.  The
statistics become the "runtime metrics as seen in the history" that
CloudViews pre-joins with subexpressions in its workload repository
(Section 2.3) -- reuse decisions are made from *observed* numbers, never
from estimates.

Spool operators perform their double duty here: the child's rows flow to
the parent unchanged *and* are written to stable storage under the view
path, exactly the online-materialization side effect of Section 2.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ExecutionError
from repro.executor.udo import UdoRegistry, default_registry
from repro.plan.expressions import Compiled, Expr, FuncCall, Row
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
from repro.storage.store import DataStore, _estimate_bytes


@dataclass
class OperatorStats:
    """Observed runtime numbers for one operator instance."""

    operator: str
    rows_in: int
    rows_out: int
    bytes_out: int
    description: str = ""


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
    #: Per-node output rows, populated only when the executor was created
    #: with ``capture_rows=True`` (used by shared batch execution).
    node_rows: Dict[int, List[Row]] = field(default_factory=dict)

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

    def rows_out_of(self, node: LogicalPlan) -> int:
        for candidate, stats in self.node_stats:
            if candidate is node:
                return stats.rows_out
        raise ExecutionError("node not part of this execution")


class Executor:
    """Interprets logical plans over the simulated store.

    Two rules keep the bookkeeping cheaper than the query it describes:
    *a row list is measured once* -- every operator hands its parent the
    byte size of its output next to the rows, so an operator whose output
    is its child's list or multiset (a spool, a sort, a filter that kept
    everything) inherits the number instead of walking the rows again --
    and *an expression is compiled once per operator execution*, so the
    per-row work is a call to a closure, never a tree walk.
    """

    def __init__(self, store: DataStore,
                 udos: Optional[UdoRegistry] = None,
                 capture_rows: bool = False):
        self.store = store
        self.udos = udos or default_registry()
        self.capture_rows = capture_rows

    def execute(self, plan: LogicalPlan) -> ExecutionResult:
        result = ExecutionResult(rows=[], node_stats=[])
        result.rows, _ = self._run(plan, result)
        return result

    # ------------------------------------------------------------------ #
    # dispatch

    def _run(self, plan: LogicalPlan,
             result: ExecutionResult) -> Tuple[List[Row], int]:
        """Run ``plan``; returns its output rows and their byte size.

        A handler returns ``(rows_in, rows_out, bytes_out)`` and leaves
        ``bytes_out`` ``None`` when its output is a new multiset of
        values, which is then measured here -- the one walk it gets.
        """
        kind = type(plan)
        handler = _HANDLERS.get(kind)
        if handler is None:
            raise ExecutionError(f"no executor for operator {kind.__name__}")
        rows_in, rows_out, bytes_out = handler(self, plan, result)
        if bytes_out is None:
            bytes_out = _estimate_bytes(rows_out)
        result.node_stats.append((plan, OperatorStats(
            operator=plan.op_label,
            rows_in=rows_in,
            rows_out=len(rows_out),
            bytes_out=bytes_out,
            description=plan.describe(),
        )))
        if self.capture_rows:
            result.node_rows[id(plan)] = rows_out
        return rows_out, bytes_out

    # ------------------------------------------------------------------ #
    # operators

    def _scan(self, plan: Scan, result: ExecutionResult):
        if plan.stream_guid is None:
            raise ExecutionError(
                f"scan of {plan.dataset!r} was not bound to a stream GUID")
        rows, size = self.store.read_columns(plan.stream_guid, plan.columns)
        return 0, rows, size

    def _view_scan(self, plan: ViewScan, result: ExecutionResult):
        rows, size = self.store.read(plan.view_path)
        result.views_read.append(plan.signature)
        return 0, list(rows), size

    def _filter(self, plan: Filter, result: ExecutionResult):
        rows, size = self._run(plan.child, result)
        kept = list(filter(plan.predicate.compile(), rows))
        return len(rows), kept, _size_if_all_kept(rows, kept, size)

    def _project(self, plan: Project, result: ExecutionResult):
        rows, _ = self._run(plan.child, result)
        columns = [(name, expr.compile())
                   for expr, name in zip(plan.exprs, plan.names)]
        out = [{name: value(row) for name, value in columns} for row in rows]
        return len(rows), out, None

    def _join(self, plan: Join, result: ExecutionResult):
        left, _ = self._run(plan.left, result)
        right, _ = self._run(plan.right, result)
        rows_in = len(left) + len(right)
        algorithm = choose_join_algorithm(plan, len(left), len(right))
        if algorithm == "hash":
            out = _hash_join(plan, left, right)
        elif algorithm == "merge":
            out = _merge_join(plan, left, right)
        else:
            out = _nested_loop_join(plan, left, right)
        return rows_in, out, None

    def _group_by(self, plan: GroupBy, result: ExecutionResult):
        rows, _ = self._run(plan.child, result)
        out = _hash_aggregate(plan, rows)
        return len(rows), out, None

    def _union(self, plan: Union, result: ExecutionResult):
        rows_in = 0
        size = 0
        out: List[Row] = []
        schema = plan.schema
        for child in plan.inputs:
            child_rows, child_size = self._run(child, result)
            rows_in += len(child_rows)
            # Positionally align columns to the union's output schema.
            child_schema = child.schema
            if child_schema != schema:
                child_rows = [{s: row[c] for s, c in zip(schema, child_schema)}
                              for row in child_rows]
                child_size = _estimate_bytes(child_rows)
            out.extend(child_rows)
            size += child_size
        return rows_in, out, size

    def _distinct(self, plan: Distinct, result: ExecutionResult):
        rows, size = self._run(plan.child, result)
        seen = set()
        out: List[Row] = []
        schema = plan.schema
        for row in rows:
            key = tuple([_hashable(row.get(c)) for c in schema])
            if key not in seen:
                seen.add(key)
                out.append(row)
        return len(rows), out, _size_if_all_kept(rows, out, size)

    def _sort(self, plan: Sort, result: ExecutionResult):
        rows, size = self._run(plan.child, result)
        out = list(rows)
        # Stable sort, applied from the least-significant key backwards.
        for key, ascending in reversed(list(zip(plan.keys, plan.ascending))):
            value = key.compile()
            out.sort(key=lambda row: _sort_key(value(row)),
                     reverse=not ascending)
        return len(rows), out, size

    def _limit(self, plan: Limit, result: ExecutionResult):
        rows, size = self._run(plan.child, result)
        out = rows[:plan.count]
        return len(rows), out, _size_if_all_kept(rows, out, size)

    def _process(self, plan: Process, result: ExecutionResult):
        rows, _ = self._run(plan.child, result)
        out = self.udos.get(plan.udo_name)(list(rows))
        return len(rows), out, None

    def _spool(self, plan: Spool, result: ExecutionResult):
        rows, size = self._run(plan.child, result)
        self.store.put(plan.view_path, rows, size)
        result.spooled.append(SpoolOutput(
            signature=plan.signature,
            view_path=plan.view_path,
            row_count=len(rows),
            size_bytes=size,
            schema=plan.schema,
        ))
        return len(rows), rows, size


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


def _size_if_all_kept(rows: List[Row], kept: List[Row],
                      size: int) -> Optional[int]:
    """``kept`` is an order-preserving selection of ``rows``, whose byte
    size is ``size``: the same multiset -- and so the same size -- exactly
    when nothing was dropped."""
    return size if len(kept) == len(rows) else None


# --------------------------------------------------------------------- #
# join and aggregation kernels

#: Below this input size a nested-loop join beats building a hash table.
LOOP_JOIN_THRESHOLD = 10


def choose_join_algorithm(plan: Join, left_rows: int, right_rows: int) -> str:
    """Physical join selection: ``hash``, ``merge``, or ``loop``.

    Mirrors a SCOPE-like optimizer: no equi-keys forces nested loops;
    multi-key equi-joins run as sort-merge (the inputs are co-partitioned
    and sorted on the compound key in production); small inputs use loops;
    everything else hashes.  The mix of all three is what Figure 9's
    concurrent-join histogram breaks down by.
    """
    if not plan.left_keys:
        return "loop"
    if len(plan.left_keys) >= 2:
        return "merge"
    if min(left_rows, right_rows) < LOOP_JOIN_THRESHOLD:
        return "loop"
    return "hash"


def _key_function(exprs: Sequence[Expr],
                  convert: Callable[[object], object]
                  ) -> Callable[[Row], tuple]:
    """One function from a row to the tuple of ``convert``-ed values of
    ``exprs`` -- a join, group or sort key -- compiled once."""
    parts = [expr.compile() for expr in exprs]
    if len(parts) == 1:
        (only,) = parts
        return lambda row: (convert(only(row)),)
    if len(parts) == 2:
        first, second = parts
        return lambda row: (convert(first(row)), convert(second(row)))
    return lambda row: tuple([convert(part(row)) for part in parts])


def _emit_join(plan: Join,
               matches: Iterable[Tuple[Row, Sequence[Row]]]) -> List[Row]:
    """The output of a join whose kernel paired each left row, in output
    order, with the right rows that share its equi-key: merge the pairs
    that pass the residual, NULL-extend an unmatched left row."""
    dropped = set(plan.drop_right)
    residual = plan.residual.compile() if plan.residual is not None else None
    unmatched = _null_row(plan.right.schema) if plan.how == "left" else None
    out: List[Row] = []
    for lrow, candidates in matches:
        matched = False
        for rrow in candidates:
            merged = _merge(lrow, rrow, dropped)
            if residual is None or residual(merged):
                matched = True
                out.append(merged)
        if not matched and unmatched is not None:
            out.append(_merge(lrow, unmatched, dropped))
    return out


def _hash_join(plan: Join, left: List[Row], right: List[Row]) -> List[Row]:
    right_key = _key_function(plan.right_keys, _hashable)
    left_key = _key_function(plan.left_keys, _hashable)
    index: Dict[tuple, List[Row]] = {}
    for row in right:
        index.setdefault(right_key(row), []).append(row)
    probe = index.get
    return _emit_join(plan, ((row, probe(left_key(row), ())) for row in left))


def _merge_join(plan: Join, left: List[Row], right: List[Row]) -> List[Row]:
    """Sort-merge join on the compound equi-key."""
    left_keys, left_sorted = _sorted_by(
        _key_function(plan.left_keys, _sort_key), left)
    right_keys, right_sorted = _sorted_by(
        _key_function(plan.right_keys, _sort_key), right)

    def matches() -> Iterator[Tuple[Row, List[Row]]]:
        j = 0
        end = len(right_sorted)
        for lkey, lrow in zip(left_keys, left_sorted):
            while j < end and right_keys[j] < lkey:
                j += 1
            # Gather the right-side run matching this key.
            run_end = j
            while run_end < end and right_keys[run_end] == lkey:
                run_end += 1
            yield lrow, right_sorted[j:run_end]

    return _emit_join(plan, matches())


def _sorted_by(key: Callable[[Row], tuple],
               rows: List[Row]) -> Tuple[List[tuple], List[Row]]:
    """``rows`` stably sorted by ``key``, with each row's key beside it
    (computed once per row)."""
    keys = [key(row) for row in rows]
    order = sorted(range(len(rows)), key=keys.__getitem__)
    return [keys[i] for i in order], [rows[i] for i in order]


def _nested_loop_join(plan: Join, left: List[Row], right: List[Row]) -> List[Row]:
    left_key = _key_function(plan.left_keys, _hashable)
    right_key = _key_function(plan.right_keys, _hashable)

    def matches() -> Iterator[Tuple[Row, List[Row]]]:
        keyed_right = None
        for lrow in left:
            lkey = left_key(lrow)
            if keyed_right is None:
                # Once, when the first left row needs them.
                keyed_right = [(right_key(row), row) for row in right]
            yield lrow, [rrow for rkey, rrow in keyed_right if rkey == lkey]

    return _emit_join(plan, matches())


def _hash_aggregate(plan: GroupBy, rows: List[Row]) -> List[Row]:
    groups: Dict[tuple, List[Row]] = {}
    if plan.keys:
        key_of = _key_function(plan.keys, _hashable)
        for row in rows:
            groups.setdefault(key_of(row), []).append(row)
    else:
        # Global aggregation always yields exactly one group.
        groups[()] = list(rows)

    keys = [(key.name, key.compile()) for key in plan.keys]
    aggregates = [
        (name, agg, agg.args[0].compile() if agg.args else None)
        for name, agg in zip(plan.names[len(keys):], plan.aggregates)]
    out: List[Row] = []
    for members in groups.values():
        result: Row = {}
        if members:
            for name, value in keys:
                result[name] = value(members[0])
        for name, agg, argument in aggregates:
            result[name] = _evaluate_aggregate(agg, argument, members)
        out.append(result)
    return out


def _evaluate_aggregate(agg: FuncCall, argument: Optional[Compiled],
                        rows: List[Row]) -> object:
    """``agg`` over one group; ``argument`` is its compiled first
    argument (``None`` for ``COUNT(*)``)."""
    name = agg.name
    if name == "COUNT" and argument is None:
        return len(rows)
    values: List[object] = []
    if argument is not None:
        values = [v for v in map(argument, rows) if v is not None]
    if agg.distinct:
        unique: List[object] = []
        seen = set()
        for value in values:
            marker = _hashable(value)
            if marker not in seen:
                seen.add(marker)
                unique.append(value)
        values = unique
    if name == "COUNT":
        return len(values)
    if not values:
        return None
    if name == "SUM":
        return sum(values)
    if name == "AVG":
        return sum(values) / len(values)
    if name == "MIN":
        return min(values)
    if name == "MAX":
        return max(values)
    raise ExecutionError(f"unknown aggregate {name!r}")


# --------------------------------------------------------------------- #
# small helpers


def _merge(left: Row, right: Row, dropped: set) -> Row:
    merged = dict(left)
    for key, value in right.items():
        if key not in dropped:
            merged[key] = value
    return merged


def _null_row(schema: Tuple[str, ...]) -> Row:
    return {c: None for c in schema}


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
