"""Filter, join and group kernels over stored blobs against the references.

The executor reads column facts that :meth:`DataStore.put_batch` records
(a column whose every value is one value of one exact type), and its
group kernel picks its shape from what the input shows (one key column
that hashes as itself and one aggregate, or else the general keyed path;
no key at all is one group, even over no rows).  So
these plans run through :class:`Executor` over blobs a :class:`DataStore`
holds -- a ``Batch.from_rows`` would carry no facts -- over NULL-heavy and
mixed-type columns, constant columns of every exact type, ``0.0`` beside
``-0.0``, one shared NaN and NaNs that are distinct objects, ``True``
among ``1``s, literals of other types, and join keys that are distinct or
duplicated through ``1`` / ``1.0`` / ``True``.  Each result is held

* to the row-at-a-time references: ``Expr.evaluate`` per row for a
  filter, ``reference_join`` for a join, a first-appearance fold over
  zero, one or two keys for a group -- the same rows in the same order,
  each value of the same type and ``repr`` (so ``-0.0`` is not ``0.0``),
  and an error only where some row's reference raises one, with its
  type and message; and
* to the same plan over the same blobs stored without facts -- the same
  rows, per-operator statistics and exception, exactly: a conjunct a fact
  decides is one that would have kept every row without raising.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.executor.executor import Executor
from repro.plan.expressions import BinaryOp, ColumnRef, FuncCall, Literal
from repro.plan.logical import Filter, GroupBy, Join, Scan
from repro.storage.batch import NO_FACTS
from repro.storage.store import DataStore
from tests.properties.test_join_properties import reference_join

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

NAN = float("nan")          # the one shared NaN object
LEFT_COLUMNS = ("k", "a", "b")
RIGHT_COLUMNS = ("rk", "c")
COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")

#: One value per exact kind a constant column may hold, and its edges.
constants = st.sampled_from(
    [0, 1, 2, 0.0, -0.0, 1.0, 2.5, NAN, "", "a", "b", True, False])
#: NULL-heavy values of mixed types, with floats whose sum is order's.
scalars = st.one_of(st.none(), st.none(), constants,
                    st.sampled_from([0.1, 0.2, 0.3]))


def column(n):
    """``n`` values: constant, a few repeated keys (``1`` / ``1.0`` /
    ``True`` among them), ``True`` among ``1``s, zeros of both signs, NaNs
    that are distinct objects, or NULL-heavy mixed."""
    constant = constants.map(lambda value: [value] * n)
    repeated = st.permutations([2, "a", 1, None, True, 1.0, 2, "a"]).map(
        lambda values: values[:n])
    return st.one_of(
        constant, repeated, constant, repeated,
        st.lists(st.sampled_from([1, 1, 1.0, True]), min_size=n, max_size=n),
        st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n),
        st.just([float("nan") for _ in range(n)]),
        st.lists(scalars, min_size=n, max_size=n))


@st.composite
def tables(draw, names, fewest=0):
    n = draw(st.integers(fewest, 8))
    columns = {name: draw(column(n)) for name in names}
    return [{name: columns[name][i] for name in names} for i in range(n)]


@st.composite
def conjuncts(draw, names, rows):
    """A comparison over the columns ``names`` of ``rows``, the last (a
    join's right side, NULL-extended by a left join) read most; a literal
    is mostly a value its column holds, so a constant column's conjunct
    often holds."""
    name = draw(st.sampled_from(names[::-1]))
    held = [row[name] for row in rows if name in row]
    pool = st.sampled_from(held) if held else constants
    source = draw(st.integers(0, 5))
    literal = Literal(draw(pool if source < 3 else scalars if source == 5
                           else st.sampled_from([3, "z"])))
    op, ref = draw(st.sampled_from(COMPARISONS)), ColumnRef(name)
    return draw(st.sampled_from([
        BinaryOp(op, ref, literal), BinaryOp(op, ref, literal),
        BinaryOp(op, literal, ref),
        BinaryOp(op, ref, ColumnRef(draw(st.sampled_from(names)))),
    ]))


def conjunction(parts):
    predicate = parts[0]
    for part in parts[1:]:
        predicate = BinaryOp("AND", predicate, part)
    return predicate


AGGREGATES = [FuncCall("COUNT", ()), FuncCall("SUM", (ColumnRef("b"),)),
              FuncCall("MIN", (ColumnRef("b"),)),
              FuncCall("AVG", (ColumnRef("a"),)),
              FuncCall("COUNT", (ColumnRef("b"),)),
              FuncCall("COUNT", (ColumnRef("a"),), distinct=True)]


#: What runs over the scan of ``L``, bottom up.
SHAPES = ["join filter", "filter", "group", "join filter group",
          "join filter", "filter group", "group", "join group", "join"]


@st.composite
def cases(draw):
    """Two tables and a plan over them."""
    left = draw(tables(LEFT_COLUMNS))
    right = draw(tables(RIGHT_COLUMNS, fewest=1))
    plan, names = Scan("L", LEFT_COLUMNS, "left"), LEFT_COLUMNS
    shape = draw(st.sampled_from(SHAPES))
    if "join" in shape:
        keys = draw(st.sampled_from([1, 2, 0]))
        plan = Join(plan, Scan("R", RIGHT_COLUMNS, "right"),
                    (ColumnRef("k"), ColumnRef("a"))[:keys],
                    (ColumnRef("rk"), ColumnRef("c"))[:keys],
                    draw(st.sampled_from([None, BinaryOp(
                        "<>", ColumnRef("b"), ColumnRef("c"))])),
                    draw(st.sampled_from(["left", "inner"])))
        names += RIGHT_COLUMNS
    if "filter" in shape:
        plan = Filter(plan, conjunction(draw(st.lists(
            conjuncts(names, left + right), min_size=1, max_size=3))))
    if "group" in shape:
        keys = tuple(draw(st.permutations(("k", "b", "c") if "c" in names
                                          else ("k", "b"))))
        keys = keys[:draw(st.sampled_from([1, 2, 0, 1]))]
        aggregates = tuple(draw(st.lists(st.sampled_from(AGGREGATES),
                                         min_size=1, max_size=2)))
        plan = GroupBy(plan, tuple(map(ColumnRef, keys)), aggregates,
                       keys + tuple(f"x{i}" for i in range(len(aggregates))))
    return left, right, plan


# --------------------------------------------------------------------- #
# the references


def reference(plan, left, right):
    """``plan`` row at a time; raises what its first failing row raises."""
    if isinstance(plan, Scan):
        return [dict(row) for row in (left if plan.dataset == "L" else right)]
    if isinstance(plan, Join):
        return reference_join(plan, reference(plan.left, left, right),
                              reference(plan.right, left, right))
    rows = reference(plan.child, left, right)
    if isinstance(plan, Filter):
        return [row for row in rows if plan.predicate.evaluate(row)]
    keys = [key.name for key in plan.keys]
    # Without keys, one group: the whole input, even when it is empty.
    groups = {} if keys else {(): rows}
    for row in rows if keys else ():
        groups.setdefault(tuple(row[key] for key in keys), []).append(row)
    folded = [[fold(agg, [agg.args[0].evaluate(row) for row in members])
               if agg.args else len(members)
               for members in groups.values()] for agg in plan.aggregates]
    return [{**{key: members[0][key] for key in keys},
             **{name: column[i] for name, column in zip(
                 plan.names[len(keys):], folded)}}
            for i, members in enumerate(groups.values())]


def fold(agg, values):
    """``agg`` over one group's argument values, in their order."""
    values = [value for value in values if value is not None]
    if agg.distinct:
        values = list(dict.fromkeys(values))
    if agg.name == "COUNT":
        return len(values)
    if not values:
        return None
    if agg.name == "AVG":
        return sum(values) / len(values)
    return {"SUM": sum, "MIN": min}[agg.name](values)


def row_errors(plan, left, right):
    """Every error some row of ``plan``'s filter raises over its input
    (which failing row a batch reports is its own business)."""
    errors = set()
    for node in plan.walk():
        if isinstance(node, Filter):
            for row in reference(node.child, left, right):
                try:
                    node.predicate.evaluate(row)
                except Exception as error:  # noqa: BLE001 - the outcome
                    errors.add((type(error), str(error)))
    return errors


def outcome(run):
    try:
        return ("rows", [[(name, type(value), repr(value))
                          for name, value in row.items()] for row in run()])
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return ("error", type(error), str(error))


def executed(plan, left, right, facts=True):
    """``plan`` through the executor over stored blobs: its outcome and
    per-operator statistics (``None`` after an error)."""
    store = DataStore()
    store.put("left", left)
    store.put("right", right)
    if not facts:
        for key in ("left", "right"):
            store.read(key).facts = NO_FACTS
    result = []

    def run():
        executed = Executor(store).execute(plan)
        result.append([(s.operator, s.rows_in, s.rows_out, s.bytes_out)
                       for _, s in executed.node_stats])
        return executed.rows

    return outcome(run), (result or [None])[0]


def facts_by_definition(rows, names):
    """The constant-column facts of ``rows``, by their definition."""
    facts = {}
    for name in names:
        values = [row[name] for row in rows]
        if values and all(type(v) is type(values[0]) for v in values) \
                and type(values[0]) in (int, float, str, bool) \
                and all(v is values[0] or v == values[0] for v in values):
            facts[name] = values[0]
    return facts


def rows_of(names, *values):
    return [dict(zip(names, each)) for each in values]


L = Scan("L", LEFT_COLUMNS, "left")
R = Scan("R", RIGHT_COLUMNS, "right")
K_BELOW_3 = BinaryOp("<", ColumnRef("k"), Literal(3))


@SETTINGS
@given(cases())
# A column a left join NULL-extends keeps no fact.
@example((rows_of(LEFT_COLUMNS, (1, 0, 0), (2, 0, 0)),
          rows_of(RIGHT_COLUMNS, (1, "x")),
          Filter(Join(L, R, (ColumnRef("k"),), (ColumnRef("rk"),),
                      how="left"),
                 BinaryOp("=", ColumnRef("c"), Literal("x")))))
# A conjunct that raises on its constant runs over the rows: here it
# raises ...
@example((rows_of(LEFT_COLUMNS, ("s", 1, 1), ("s", 1, 1)), [],
          Filter(L, K_BELOW_3)))
# ... and here no row reaches it.
@example((rows_of(LEFT_COLUMNS, ("s", 1, 1), ("s", 1, 1)), [],
          Filter(L, BinaryOp("AND", BinaryOp(
              "=", ColumnRef("a"), Literal(2)), K_BELOW_3))))
# Global aggregation over no rows is one group.
@example(([], rows_of(RIGHT_COLUMNS, (1, "x")), GroupBy(
    L, (), (FuncCall("COUNT", ()), FuncCall("SUM", (ColumnRef("b"),))),
    ("x0", "x1"))))
# Two keys group by the pair: ``(1, 0)``, ``(True, 0)`` and ``(1.0, 0)``
# are one group, ``(1, 1)`` another.
@example((rows_of(LEFT_COLUMNS, (1, 0, 0), (True, 5, 0), (1, 1, 1),
                  (1.0, 2, 0)), [],
          GroupBy(L, (ColumnRef("k"), ColumnRef("b")),
                  (FuncCall("SUM", (ColumnRef("a"),)),),
                  ("k", "b", "x0"))))
def test_kernels_over_stored_blobs_match_the_references(case):
    left, right, plan = case
    got, stats = executed(plan, left, right)
    assert (got, stats) == executed(plan, left, right, facts=False), \
        plan.explain()
    errors = row_errors(plan, left, right)
    if errors:
        assert got[0] == "error" and got[1:] in errors, (plan.explain(), got)
    else:
        assert got == outcome(lambda: reference(plan, left, right)), \
            plan.explain()


@settings(SETTINGS, max_examples=100)
@given(tables(LEFT_COLUMNS))
@example(rows_of(LEFT_COLUMNS, (1, 0.0, NAN), (True, -0.0, NAN),
                 (1.0, 0.0, NAN)))
def test_a_blob_records_the_facts_its_definition_names(rows):
    store = DataStore()
    store.put("left", rows)
    facts = store.read("left").facts
    expected = facts_by_definition(rows, LEFT_COLUMNS)
    assert list(facts) == list(expected)
    assert all(type(facts[name]) is type(value) and repr(facts[name])
               == repr(value) for name, value in expected.items())
