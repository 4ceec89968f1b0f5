"""Late materialisation: a selection travels, a column is built when read.

``Batch.take`` hands on pending gathers (``storage.batch.Gather``), composed
rather than built; a column is built the first time an operator reads it
or, lacking a recorded width, when the batch is sized.  These tests hold
that to the eager gather kept in ``tests/batches.py`` -- the same rows, the
same per-node ``(rows_in, rows_out, bytes_out)``, the same sizes -- and pin
which columns a ``Filter -> Join -> GroupBy`` pipeline builds, so a change
that quietly builds every column again (iterating ``Columns.items()`` in
``size``, say) fails here instead of only costing time.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.executor.executor import Executor
from repro.plan.expressions import BinaryOp, ColumnRef, FuncCall, Literal
from repro.plan.logical import Filter, GroupBy, Join, Scan
from repro.storage import DataStore
from repro.storage.batch import Batch, measure
from tests.batches import eager_take

FACT = ("k", "a", "b", "c", "day", "flag", "x", "y", "note")
FACT_ROWS = [dict(k=i % 7, a=i, b=i % 5, c=i / 4, day=f"d{i % 30:04d}",
                  flag=bool(i % 3), x=None if i % 4 else i, y=3 * i,
                  note="n" * (i % 4)) for i in range(60)]
#: Every key twice, so the join fans its left side out.
DIM_ROWS = [dict(dk=i % 7, name=["", "alpha", "be", None][i % 4], w=i)
            for i in range(14)]

SCAN_F = Scan("F", FACT, "guid-f")
FILTER = Filter(SCAN_F, BinaryOp(">", ColumnRef("b"), Literal(1)))
SCAN_D = Scan("D", ("dk", "name", "w"), "guid-d")
JOIN = Join(FILTER, SCAN_D, (ColumnRef("k"),), (ColumnRef("dk"),))
GROUP = GroupBy(JOIN, (ColumnRef("name"),),
                (FuncCall("SUM", (ColumnRef("a"),)),), ("name", "total"))


def _execute(plan, tables):
    store = DataStore()
    for guid, rows in tables.items():
        store.put(guid, rows)
    result = Executor(store, capture_rows=True).execute(plan)
    return result, result.node_batches[id(plan)]


def _stats(result):
    return [(node.op_label, stats.rows_in, stats.rows_out, stats.bytes_out)
            for node, stats in result.node_stats]


def _built(batch):
    return {name for name, entry in batch.columns.entries.items()
            if type(entry) is list}


def _eager(monkeypatch, plan, tables):
    with monkeypatch.context() as patched:
        patched.setattr(Batch, "take", eager_take)
        result, batch = _execute(plan, tables)
    assert _built(batch) == set(batch.columns)
    return result, batch


def test_a_pipeline_builds_only_what_its_operators_read(monkeypatch):
    tables = {"guid-f": FACT_ROWS, "guid-d": DIM_ROWS}
    result, batch = _execute(GROUP, tables)
    built = {node.op_label: _built(result.node_batches[id(node)])
             for node, _ in result.node_stats}
    assert built == {
        "Scan": {"dk", "name", "w"},            # stored blobs are built
        # The join reads its key; ``note`` varies in width, so sizing
        # it built it.
        "Filter": {"k", "note"},
        # The group reads its key and argument; ``note`` is built to be
        # sized again.  The fixed-width columns nobody reads stay pending.
        "Join": {"name", "a", "note"},
        "GroupBy": {"name", "total"},
    }
    assert _built(result.node_batches[id(SCAN_F)]) == set(FACT)
    eager, eager_batch = _eager(monkeypatch, GROUP, tables)
    assert _stats(result) == _stats(eager)
    assert batch.rows() == eager_batch.rows()
    join = result.node_batches[id(JOIN)]
    assert join.rows() == eager.node_batches[id(JOIN)].rows()


#: Three keys of mixed types (``True == 1`` matches): each left row with
#: ``k1 < 3`` meets three right rows, the rest none.
LEFT_ROWS = [dict(k1=i % 4, k2=["", "a"][i % 2], k3=[None, True, 1][i % 3],
                  lv=i, ls="s" * (i % 3)) for i in range(24)]
RIGHT_ROWS = [dict(r1=i % 3, r2=["", "a"][i % 2], r3=[None, 1, True][i % 3],
                   rv=i % 5, rs=["", "xy", None, "z"][i % 4])
              for i in range(18)]


@pytest.mark.parametrize("how", ["inner", "left"])
@pytest.mark.parametrize("residual", [
    None, BinaryOp("<", ColumnRef("rv"), ColumnRef("lv"))])
def test_a_three_key_many_to_many_join_is_the_eager_join(
        monkeypatch, how, residual):
    plan = Join(Scan("L", tuple(LEFT_ROWS[0]), "guid-l"),
                Scan("R", tuple(RIGHT_ROWS[0]), "guid-r"),
                (ColumnRef("k1"), ColumnRef("k2"), ColumnRef("k3")),
                (ColumnRef("r1"), ColumnRef("r2"), ColumnRef("r3")),
                residual, how)
    tables = {"guid-l": LEFT_ROWS, "guid-r": RIGHT_ROWS}
    result, batch = _execute(plan, tables)
    if residual is None:
        assert batch.length > len(LEFT_ROWS)    # many to many
    # Built to be sized: the columns without a recorded width (``k2``,
    # ``k3``, ``r2``, ``r3`` mix kinds; ``ls``, ``rs`` vary in length).
    # The fixed-width ones -- keys and a residual's operands too -- are
    # handed on pending.
    assert _built(batch) == {"k2", "k3", "r2", "r3", "ls", "rs"}
    eager, eager_batch = _eager(monkeypatch, plan, tables)
    assert _stats(result) == _stats(eager)
    assert batch.rows() == eager_batch.rows()


def test_only_a_claimed_width_skips_the_key_type_walk():
    """A key column with a recorded width holds kinds that hash as
    themselves; any other is walked, and a list groups by its repr."""
    rows = [dict(k=[1], v=1), dict(k=[1], v=2), dict(k=2, v=3)]
    plan = GroupBy(Scan("T", ("k", "v"), "guid-t"), (ColumnRef("k"),),
                   (FuncCall("COUNT", ()),), ("k", "n"))
    _, batch = _execute(plan, {"guid-t": rows})
    assert batch.rows() == [{"k": [1], "n": 2}, {"k": 2, "n": 1}]


def test_one_index_over_two_base_lengths_composes_per_base():
    index = [0, 1]
    merged = Batch({"a": [1, 2, 3]}, 3).take(index).beside(
        Batch({"b": ["x", "y"]}, 2).take(index))
    assert merged.take([1, 2, 0], null=True).rows() == [
        {"a": 2, "b": "y"}, {"a": None, "b": None}, {"a": 1, "b": "x"}]


# --------------------------------------------------------------------- #
# chains of gathers against the eager gather


class Tag(str):
    pass


values = st.one_of(
    st.none(), st.none(), st.booleans(), st.integers(-2, 2),
    st.sampled_from([0.5, -1.0]),
    st.sampled_from(["", "a", "bc", "d0001", "d0002"]),
    st.sampled_from([Tag(""), Tag("ab")]),
)
NAMES = ("a", "b", "c", "d")


def _columns(draw, n):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4,
                          unique=True))
    uniform = draw(st.booleans())      # one kind per column, or a mix
    return {name: draw(st.lists(
        draw(st.sampled_from([values, st.integers(), st.booleans(),
                              st.sampled_from(["ab", "cd"])]))
        if uniform else values, min_size=n, max_size=n)) for name in names}


def _index(draw, length, null):
    top = length if null else length - 1
    if top < 0:
        return []
    return draw(st.lists(st.integers(0, top), max_size=8))


def _typed(column):
    return [(type(value), value) for value in column]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_chain_of_pending_gathers_is_the_eager_gather(data):
    draw = data.draw
    n = draw(st.integers(0, 6))
    source = _columns(draw, n)
    lazy, eager = Batch(dict(source), n), Batch(dict(source), n)
    for _ in range(draw(st.integers(1, 7))):
        step = draw(st.sampled_from(
            ["take", "null", "select", "join", "read", "size", "store"]))
        if step in ("take", "null"):
            null = step == "null"
            index = _index(draw, lazy.length, null)
            lazy, eager = (lazy.take(index, null),
                           eager_take(eager, index, null))
        elif step == "select":
            names = draw(st.lists(st.sampled_from(
                list(lazy.columns) + ["absent"]), min_size=1, unique=True))
            renamed = draw(st.permutations(NAMES + ("e",)))[:len(names)]
            lazy, eager = (lazy.select(names, renamed),
                           eager.select(names, renamed))
        elif step == "join":
            # A join's output: each side gathered to one length, merged.
            m = draw(st.integers(0, 5))
            other = _columns(draw, m)
            right = Batch(dict(other), m)
            if draw(st.booleans()):
                right.size()
            out = draw(st.integers(0, 8))
            left_index = [draw(st.integers(0, lazy.length - 1))
                          for _ in range(out)] if lazy.length else []
            null = draw(st.booleans())
            right_index = [draw(st.integers(0, m if null else m - 1))
                           for _ in range(len(left_index))] \
                if m or null else []
            left_index = left_index[:len(right_index)]
            lazy = lazy.take(left_index).beside(
                right.take(right_index, null))
            eager = eager_take(eager, left_index).beside(
                eager_take(Batch(dict(other), m), right_index, null))
        elif step == "read" and lazy.columns:
            lazy.columns[draw(st.sampled_from(list(lazy.columns)))]
        elif step == "size":
            lazy.size()
        elif step == "store":
            DataStore().put_batch("k", lazy)
            assert all(type(entry) is list
                       for entry in lazy.columns.entries.values())
    assert list(lazy.columns) == list(eager.columns)
    assert lazy.length == eager.length
    size = lazy.size()
    for name in eager.columns:
        built = eager.columns[name]
        assert _typed(lazy.columns[name]) == _typed(built)
        assert len(built) == lazy.length
        assert lazy.measured[name][0] == measure(built)[0]
        claimed = lazy.measured[name][1]     # 0, or what every value weighs
        assert claimed == 0 or all(measure([value]) == (claimed, claimed)
                                   for value in built)
    assert size == sum(measure(eager.columns[name])[0]
                       for name in eager.columns)
