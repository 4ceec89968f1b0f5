"""Execution backend over a real SQLite database.

Datasets load as real tables, optimized plans compile to SQL (see
:mod:`repro.backends.sqlite.compile`), Spool operators materialize
views with ``CREATE TABLE AS`` before the consuming query runs, and
ViewScans read those tables back.

Per-operator statistics -- the observed numbers the CloudViews feedback
loop trains on -- use the same byte-width rule as the in-memory store, so
reuse decisions and the catalog digest are identical across backends.  A
measurement is ``(rows, {column: bytes})``; the measuring statement is
``SELECT COUNT(*), SUM(width of c1), SUM(width of c2), ... FROM (sub-plan)``
(:meth:`~repro.backends.sqlite.compile.CompiledQuery.stats_sql`), which
runs the sub-plan once more -- so it is issued only for what is not known
already, and sums only what is not.  Six rules (DESIGN §11 rules S1-S6),
every one held to the plain per-node, every-column probe by
``tests/integration/test_sqlite_statistics.py``:

S1. *A node is lowered once per ``execute``* -- one
   :class:`~repro.backends.sqlite.compile.PlanCompiler`, which remembers
   nodes by identity, serves the spools, the fetch and the statistics.
S2. *A stored table is measured once, and the measurement dies with the
   table.*  What a stream or view table holds is a fact of the physical
   table: recorded at its first measurement (for a view, the one its
   ``CREATE TABLE AS`` is followed by), kept in memory only, and
   forgotten by :meth:`SqliteBackend._transaction` before any change
   that drops or replaces the table.  A ``Scan`` picks its columns'
   entries (a column the table lacks is NULL: 8 bytes a row), a
   ``ViewScan`` and a ``Spool`` read the whole entry.
S3. *Rows that reached Python are measured in Python.*  The job's result
   is measured by :class:`~repro.storage.batch.Batch` -- the in-memory
   backend's own rule, applied after the ``bool`` re-coercion -- so the
   rows counted are the rows returned.  A root ``Union`` is fetched with
   its arm index as one more column, and measured arm by arm.
S4. *A node that holds the same rows inherits.*  Byte sums do not depend
   on row order, so a ``Sort`` weighs what its child does, a ``Spool``
   what its child and its table do, and a ``Project`` of bare column
   references maps its child's entries through the rename: upward from
   a child that is known, and downward from rows measured under S3
   when the rename is one to one and onto.
S5. *A column measured to hold no text costs no width term.*  A stored
   table's one measurement also counts each column's text values.  A
   lowering records which of its columns copy, unchanged, a stored
   column with none (``CompiledQuery.textfree``), and a measurement sums
   a width only for the others and for ``BOOL`` columns: every other
   value weighs 8 bytes.  A measured fact, never the static class.
S6. *A fetched ``GroupBy`` measures its own input.*  A keyed ``GroupBy``
   over anything but a table is lowered with ``HAVING py_tap(key,
   COUNT(*), SUM(width) ...)``; the tap adds each group's numbers up
   while the statement runs.  They are read only for a ``GroupBy`` that
   S4 reached from rows measured under S3 or a spool table --
   :meth:`SqliteBackend._tap_sums` says why that statement ran it once,
   over its whole input.

What still runs a measuring statement: a ``Filter``, ``Join``,
``GroupBy``, ``Union``, ``Distinct``, ``Limit`` or computing ``Project``
whose rows reached neither Python nor a table, unless it is the input of
a ``GroupBy`` whose rows did.

Tables are created with *typeless* columns: SQLite then stores every
value exactly as bound (no affinity coercion), which is a precondition
for the differential harness's byte-equal guarantee.  One connection
serves every job of the session.

Durability and crash safety (the fault-injection hardening):

* the connection runs in explicit-transaction mode
  (``isolation_level=None`` + ``BEGIN IMMEDIATE``/``COMMIT``), so every
  mutation actually commits -- the default driver mode never commits
  reads-before-writes sessions, which silently discarded file-backed
  state on close;
* a ``repro_catalog`` manifest table maps stream GUIDs and view paths
  to their physical tables.  The manifest row lands **in the same
  transaction** as the table it describes, so a crash mid-CTAS (the
  ``backend.materialize.mid`` injection point, or a real process kill)
  leaves *neither* the table nor the manifest row -- a view is either
  fully committed or invisible, on restart included;
* on open, the manifest is replayed into the in-memory lookup maps and
  any orphan physical table (one with no manifest row -- impossible
  under the transactional protocol, possible for pre-upgrade files)
  is dropped;
* ``sqlite3.OperationalError`` (locked/busy/full -- the transient
  classes) surfaces as :class:`~repro.common.errors.
  TransientBackendError` so the engine's bounded retry loop absorbs it:
  from ``execute`` and from every transaction (loads, drops and a
  spool's ``CREATE TABLE AS`` go through the one ``_transaction``);
* a drop forgets the table in process only after its ``COMMIT``: a drop
  that failed stays visible, so the caller's retry or the next GC sweep
  finds it, instead of a restart resurrecting a purged view from the
  manifest row that was never deleted.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import contextmanager
from functools import partial
from typing import (Dict, FrozenSet, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.backends.base import ExecutionBackend
from repro.backends.sqlite.compile import (
    CompiledQuery,
    PlanCompiler,
    TableInfo,
    classes_from_schema,
    physical_name,
    quote_ident,
)
from repro.common.errors import (
    ExecutionError,
    StorageError,
    TransientBackendError,
)
from repro.executor.executor import (
    ExecutionResult,
    OperatorStats,
    SpoolOutput,
)
from repro.faults import points as fault_points
from repro.plan.expressions import SCALAR_FUNCTIONS, Row, _like_match
from repro.plan.logical import (
    GroupBy,
    Join,
    LogicalPlan,
    Process,
    Scan,
    Sort,
    Spool,
    Union,
    ViewScan,
    contains_operator,
)
from repro.storage.batch import Batch

#: The durable GUID/view-path -> physical-table manifest.
MANIFEST_TABLE = "repro_catalog"

#: What is known of a row set: its row count and each column's byte
#: size.  Never mutated, so nodes holding the same rows share one.
Measured = Tuple[int, Mapping[str, int]]


def _py_mod(left, right):
    """``%`` with Python's sign convention; None/zero -> None."""
    if left is None or right is None or right == 0:
        return None
    return left % right


def _py_like(value, pattern, negated):
    if value is None:
        return 0
    matched = _like_match(str(value), pattern)
    return int((not matched) if negated else matched)


def _py_tap(tapped: Dict[int, List[tuple]], key: int, *values: int) -> int:
    """One group of a tapped ``GroupBy``: file its row count and width
    sums under the tap's ``key`` (S6).  Keeps every group."""
    tapped.setdefault(key, []).append(values)
    return 1


def _measure_rows(rows: List[Row], columns: Sequence[str]) -> Measured:
    """Rule 3: rows that reached Python weigh what the in-memory backend
    says they weigh."""
    batch = Batch.from_rows(rows, columns)
    batch.size()
    return len(rows), {c: size for c, (size, _) in batch.measured.items()}


def _beneath(found: Measured, renames: Mapping[str, str],
             columns: Sequence[str]) -> Optional[Measured]:
    """Rule 4, downward: what the child with ``columns`` holds, given
    what its parent holds and that the parent only ``renames`` (output
    -> child column).  Defined when the rename is one to one and onto: a
    child column the parent dropped, or handed on twice, is not there to
    be read back."""
    if not len(set(renames.values())) == len(renames) == len(columns):
        return None
    rows, sizes = found
    return rows, {source: sizes[out] for out, source in renames.items()}


class SqliteBackend(ExecutionBackend):
    """Plans compile to SQL; views are real tables."""

    name = "sqlite"

    def __init__(self, path: Optional[str] = None):
        # isolation_level=None puts the driver in autocommit mode and
        # hands transaction control to us: every mutation runs inside an
        # explicit BEGIN IMMEDIATE .. COMMIT (see _transaction), which is
        # what makes view materialization commit-or-abort.
        self._conn = sqlite3.connect(path or ":memory:",
                                     check_same_thread=False,
                                     isolation_level=None)
        self._tables: Dict[str, TableInfo] = {}
        self._views: Dict[str, TableInfo] = {}
        # Rules 2 and 5: physical table -> what it holds and which of
        # its columns hold no text, from its first measurement until
        # _transaction next touches the table.  Never persisted: a
        # reopened file measures again.
        self._measured: Dict[str, Tuple[Measured, FrozenSet[str]]] = {}
        # Rule 6: tap key -> (rows, width sums...) of each group this
        # execute formed.
        self._tapped: Dict[int, List[tuple]] = {}
        self._register_functions()
        self._conn.execute(
            f"CREATE TABLE IF NOT EXISTS {MANIFEST_TABLE} ("
            "kind TEXT NOT NULL, key TEXT NOT NULL, "
            "tbl TEXT NOT NULL, columns TEXT NOT NULL, "
            "classes TEXT NOT NULL, PRIMARY KEY (kind, key))")
        self._recover()

    def _register_functions(self) -> None:
        # Scalar functions run the interpreter's own callables so the
        # two backends cannot drift (ROUND's banker's rounding, unicode
        # case mapping, ...).  COALESCE/IFNULL lower natively instead.
        for fname, fn in SCALAR_FUNCTIONS.items():
            if fname in ("COALESCE", "IFNULL"):
                continue
            self._conn.create_function(
                f"py_{fname.lower()}", -1, fn, deterministic=True)
        self._conn.create_function("py_mod", 2, _py_mod, deterministic=True)
        self._conn.create_function("py_like", 3, _py_like, deterministic=True)
        # Not deterministic: SQLite must call it once per group it forms.
        self._conn.create_function("py_tap", -1,
                                   partial(_py_tap, self._tapped))

    # ------------------------------------------------------------------ #
    # crash recovery

    def _recover(self) -> None:
        """Replay the manifest into the lookup maps; drop orphans.

        A reopened file-backed database re-registers every committed
        stream and view; anything half-written by a crash was never
        committed (SQLite's own journal rolled it back), so the manifest
        is the single source of truth for what exists.
        """
        known = set()
        for kind, key, tbl, columns, classes in self._conn.execute(
                f"SELECT kind, key, tbl, columns, classes "
                f"FROM {MANIFEST_TABLE}"):
            info = TableInfo(table=tbl,
                             columns=tuple(json.loads(columns)),
                             classes=json.loads(classes))
            self._registry(kind)[key] = info
            known.add(tbl)
        # Orphan physical tables (no manifest row) cannot arise from the
        # transactional write protocol; clean them up anyway so files
        # written by older versions converge to a consistent state.
        # (Nothing is measured yet, so there is nothing to forget.)
        orphans = [name for (name,) in self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND (name LIKE 't\\_%' ESCAPE '\\' "
            "     OR name LIKE 'v\\_%' ESCAPE '\\')")
            if name not in known]
        for name in orphans:
            self._conn.execute(f"DROP TABLE IF EXISTS {quote_ident(name)}")

    def _registry(self, kind: str) -> Dict[str, TableInfo]:
        """The lookup map of one manifest kind: ``t`` streams, ``v`` views."""
        return self._tables if kind == "t" else self._views

    # ------------------------------------------------------------------ #
    # transactions

    @contextmanager
    def _transaction(self, table: str) -> Iterator[None]:
        """One commit-or-abort change that drops or replaces ``table``.

        What was measured of the table is forgotten *before* ``BEGIN``,
        whichever way the transaction then ends: a rolled-back one brings
        the old table back unmeasured, the safe direction.  The transient
        driver errors (locked/busy/full) leave as
        :class:`TransientBackendError`, from ``BEGIN`` and ``COMMIT`` too.
        """
        self._measured.pop(table, None)
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield
                self._conn.execute("COMMIT")
            except BaseException:
                try:
                    self._conn.execute("ROLLBACK")
                except sqlite3.OperationalError:  # pragma: no cover
                    pass                          # no open transaction
                raise
        except sqlite3.OperationalError as error:
            raise TransientBackendError(
                f"sqlite transaction failed: {error}") from error

    def _manifest_put(self, kind: str, key: str, info: TableInfo) -> None:
        self._conn.execute(
            f"INSERT OR REPLACE INTO {MANIFEST_TABLE} VALUES (?,?,?,?,?)",
            (kind, key, info.table, json.dumps(list(info.columns)),
             json.dumps(dict(info.classes))))

    def _drop(self, kind: str, key: str) -> None:
        """Drop the table behind one manifest row; a no-op when absent."""
        registry = self._registry(kind)
        info = registry.get(key)
        if info is None:
            return
        with self._transaction(info.table):
            self._conn.execute(
                f"DROP TABLE IF EXISTS {quote_ident(info.table)}")
            self._conn.execute(
                f"DELETE FROM {MANIFEST_TABLE} "
                "WHERE kind = ? AND key = ?", (kind, key))
        # Forgotten only once it is gone from the file: a drop that
        # failed must stay visible, so that the caller's retry (or
        # the next GC sweep) finds it -- else a restart replays the
        # manifest row and resurrects a purged view.
        del registry[key]

    # ------------------------------------------------------------------ #
    # datasets

    def load_table(self, schema, guid: str, rows: Sequence[Row]) -> None:
        info = TableInfo(
            table=physical_name("t", guid),
            columns=tuple(schema.column_names),
            classes=classes_from_schema(schema),
        )
        with self._transaction(info.table):
            self._create_and_fill(info, [
                tuple(row.get(c) for c in info.columns)
                for row in rows])
            self._manifest_put("t", guid, info)
        self._tables[guid] = info

    def scan_table(self, guid: str) -> List[Row]:
        info = self._tables.get(guid)
        if info is None:
            raise StorageError(f"no data stored under key {guid!r}")
        return self._fetch(info.query())

    def drop_table(self, guid: str) -> None:
        self._drop("t", guid)

    # ------------------------------------------------------------------ #
    # execution

    def execute(self, plan: LogicalPlan) -> ExecutionResult:
        if contains_operator(plan, Process):
            raise ExecutionError(
                "the SQLite backend cannot execute Process (UDO) "
                "operators; run this job on the in-memory backend")
        faults = self.faults
        if faults.enabled:
            faults.fire(fault_points.BACKEND_EXECUTE)
            for node in plan.walk():
                if isinstance(node, ViewScan):
                    faults.fire(fault_points.BACKEND_SCAN_VIEW)
        result = ExecutionResult(rows=[], node_stats=[])
        self._tapped.clear()
        compiler = PlanCompiler(self._tables, self._views,
                                lambda info: self._stored(info)[1])
        # id(node) -> what the node holds, as far as it is known
        # without asking SQLite again (the module docstring's rules).
        known: Dict[int, Measured] = {}
        try:
            # Materialize every Spool bottom-up first: the consuming
            # query then reads the spool table (compute-once, two
            # consumers), and nested spools resolve inner-first.
            for node in _post_order(plan):
                if isinstance(node, Spool):
                    self._materialize_spool(node, compiler, known, result)
                elif isinstance(node, ViewScan):
                    result.views_read.append(node.signature)
            result.rows = self._fetch_root(plan, compiler, known)
            self._stats_walk(plan, compiler, known, result)
        except sqlite3.OperationalError as error:
            raise TransientBackendError(
                f"sqlite execution failed: {error}") from error
        return result

    def _materialize_spool(self, node: Spool, compiler: PlanCompiler,
                           known: Dict[int, Measured],
                           result: ExecutionResult) -> None:
        """``CREATE TABLE AS`` the spool's view, and measure the table it
        made."""
        self.faults.fire(fault_points.BACKEND_MATERIALIZE)
        compiled = compiler.lower(node.child)
        info = TableInfo(
            table=physical_name("v", node.view_path),
            columns=compiled.columns,
            classes=dict(compiled.classes),
        )
        # Commit-or-abort: DROP + CTAS + manifest row are one
        # transaction, so a crash at any point (including the injected
        # mid-CTAS kill below) leaves no partially visible view.
        with self._transaction(info.table):
            self._conn.execute(
                f"DROP TABLE IF EXISTS {quote_ident(info.table)}")
            self._conn.execute(
                f"CREATE TABLE {quote_ident(info.table)} AS {compiled.sql}")
            self.faults.fire(fault_points.BACKEND_MATERIALIZE_MID)
            self._manifest_put("v", node.view_path, info)
        self._views[node.view_path] = info
        found = self._stored(info)[0]
        # Spool == its child == its table.
        self._hold(node, found, compiler, known)
        result.spooled.append(SpoolOutput(
            signature=node.signature,
            view_path=node.view_path,
            row_count=found[0],
            size_bytes=sum(found[1].values()),
            schema=node.schema,
        ))

    def _fetch_root(self, plan: LogicalPlan, compiler: PlanCompiler,
                    known: Dict[int, Measured]) -> List[Row]:
        """The job's rows.  They are measured here, in Python (S3),
        not by running the plan a second time -- and a root ``Union``'s
        rows arm by arm, which is what reaches each arm's subtree."""
        if not isinstance(plan, Union):
            lowered = compiler.lower(plan)
            rows = self._fetch(lowered)
            self._hold(plan, _measure_rows(rows, lowered.columns),
                       compiler, known)
            return rows
        lowered = compiler.lower_arms(plan)
        arms: List[List[Row]] = [[] for _ in plan.inputs]
        rows = self._fetch(lowered, arms)
        parts = [_measure_rows(arm, lowered.columns) for arm in arms]
        known[id(plan)] = len(rows), {
            c: sum(sizes[c] for _, sizes in parts) for c in lowered.columns}
        for child, part in zip(plan.inputs, parts):
            columns = compiler.lower(child).columns
            # The arm re-keys its input to the schema by position.
            self._hold(child, _beneath(
                part, dict(zip(plan.schema, columns)), columns),
                compiler, known)
        return rows

    def _hold(self, node: LogicalPlan, found: Optional[Measured],
              compiler: PlanCompiler, known: Dict[int, Measured]) -> None:
        """``node`` holds the rows measured as ``found`` -- and so does
        every node below it that hands the same rows up (S4): the
        child of a ``Sort`` or ``Spool``, and of a one-to-one rename.
        A tapped ``GroupBy`` reached this way hands down what its tap
        summed (S6)."""
        while found is not None:
            known[id(node)] = found
            if isinstance(node, GroupBy):
                found = self._tap_sums(node, found, compiler)
            elif not isinstance(node, (Sort, Spool)):
                renames = compiler.lower(node).renames
                if renames is None:
                    return
                found = _beneath(found, renames,
                                 compiler.lower(node.child).columns)
            node = node.child

    def _tap_sums(self, node: GroupBy, found: Measured,
                  compiler: PlanCompiler) -> Optional[Measured]:
        """Rule 6: what the input of a ``GroupBy`` that holds ``found``
        holds, as its tap summed it.  Called only from :meth:`_hold`,
        right after the statement that ran the ``GroupBy`` -- the fetch
        or the ``CREATE TABLE AS`` -- whose rows reached Python or a
        table through ``Sort``, ``Spool``, one-to-one renames or a root
        ``Union`` arm.

        So nothing above the ``GroupBy`` in that statement joins,
        filters or limits it: no ``WHERE`` stands above it for SQLite to
        push down into its input, no join reads it partly or not at all,
        no ``LIMIT`` stops it early, and the probes that might run it
        again come later.  ``COUNT(*)`` among the tap's arguments keeps
        SQLite (3.39 and later) from moving the ``HAVING`` term into a
        ``WHERE``, where it would run per input row.  And the tap was
        called once per group the statement returned -- a ``GroupBy``
        that occurs twice in the plan runs twice, and is not believed --
        so the statement ran it exactly once, over its whole input; no
        group means no input row.  Any other tap is never read: that
        ``GroupBy``'s input is probed as if it had no tap.
        """
        key = (compiler.taps or {}).get(id(node))
        groups = self._tapped.get(key, [])
        if key is None or len(groups) != found[0]:
            return None
        rows, *sums = [sum(column) for column in zip(*groups)] or [0]
        return rows, compiler.lower(node.child).sizes(rows, sums)

    def _stats_walk(self, node: LogicalPlan, compiler: PlanCompiler,
                    known: Dict[int, Measured],
                    result: ExecutionResult) -> int:
        """Emit per-node OperatorStats post-order; returns rows_out."""
        child_rows = [self._stats_walk(c, compiler, known, result)
                      for c in node.children()]
        found = known.get(id(node))
        if found is None:
            found = known[id(node)] = self._measure(node, compiler, known)
        rows_out, sizes = found
        if isinstance(node, (Scan, ViewScan)):
            rows_in = 0
        elif isinstance(node, (Join, Union)):
            rows_in = sum(child_rows)
        else:
            rows_in = child_rows[0] if child_rows else 0
        result.node_stats.append((node, OperatorStats(
            operator=node.op_label,
            rows_in=rows_in,
            rows_out=rows_out,
            bytes_out=sum(sizes.values()),
        )))
        return rows_out

    def _measure(self, node: LogicalPlan, compiler: PlanCompiler,
                 known: Dict[int, Measured]) -> Measured:
        """What ``node`` holds, its children being known: read off a
        stored table (S2), inherited from a child that holds the same
        rows (S4, upward), and only otherwise probed."""
        if isinstance(node, Scan):
            (rows, sizes), _ = self._stored(self._tables[node.stream_guid])
            # A column the table lacks is NULL in every row.
            return rows, {c: sizes.get(c, 8 * rows)
                          for c in compiler.lower(node).columns}
        if isinstance(node, (ViewScan, Spool)):
            return self._stored(self._views[node.view_path])[0]
        if isinstance(node, Sort):
            return known[id(node.child)]
        lowered = compiler.lower(node)
        if lowered.renames is not None:
            rows, sizes = known[id(node.child)]
            return rows, {out: sizes[source]
                          for out, source in lowered.renames.items()}
        return self._probe(lowered)

    def _stored(self, info: TableInfo) -> Tuple[Measured, FrozenSet[str]]:
        """What a stream or view table holds, and which of its columns
        hold no text: probed once, then a fact of the table until
        :meth:`_transaction` drops or replaces it."""
        found = self._measured.get(info.table)
        if found is None:
            compiled = info.query()
            rows, *sums = self._conn.execute(
                compiled.stats_sql(count_text=True)).fetchone()
            texts = sums[len(info.columns):]
            found = self._measured[info.table] = (
                (rows, compiled.sizes(rows, sums)), frozenset(
                    c for c, n in zip(info.columns, texts) if not n))
        return found

    def _probe(self, compiled: CompiledQuery) -> Measured:
        """Run ``compiled`` once more, to count it: a width sum for each
        ``probed`` column, 8 bytes a row for the rest (S5)."""
        rows, *sums = self._conn.execute(compiled.stats_sql()).fetchone()
        return rows, compiled.sizes(rows, sums)

    # ------------------------------------------------------------------ #
    # materialized views

    def drop_view(self, view_id: str) -> None:
        self.faults.fire(fault_points.BACKEND_DROP_VIEW)
        self._drop("v", view_id)

    # ------------------------------------------------------------------ #
    # helpers

    def close(self) -> None:
        self._conn.close()

    def _create_and_fill(self, info: TableInfo, tuples) -> None:
        table = quote_ident(info.table)
        self._conn.execute(f"DROP TABLE IF EXISTS {table}")
        # Typeless columns: no affinity, values stored exactly as bound.
        columns = ", ".join(quote_ident(c) for c in info.columns)
        self._conn.execute(f"CREATE TABLE {table} ({columns})")
        if tuples:
            marks = ", ".join("?" for _ in info.columns)
            self._conn.executemany(
                f"INSERT INTO {table} VALUES ({marks})", tuples)

    def _fetch(self, compiled: CompiledQuery,
               arms: Optional[List[List[Row]]] = None) -> List[Row]:
        """Fresh row dicts in plan column order.  With ``arms`` the
        statement is a ``lower_arms`` one: each row is also filed under
        the input it came from."""
        columns = compiled.columns
        bool_cols = compiled.bool_columns()
        out: List[Row] = []
        for values in self._conn.execute(compiled.sql):
            # zip stops at the plan's columns: an arm index stays out.
            row = dict(zip(columns, values))
            for c in bool_cols:
                if row[c] is not None:
                    row[c] = bool(row[c])
            out.append(row)
            if arms is not None:
                arms[values[-1]].append(row)
        return out


def _post_order(plan: LogicalPlan):
    for child in plan.children():
        yield from _post_order(child)
    yield plan
