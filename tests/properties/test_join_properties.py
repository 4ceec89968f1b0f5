"""Property-based tests for the join kernel and new predicates.

The batch kernels are held to a row-at-a-time reference join and
aggregate kept here, in the test: same rows, *same order* -- order is
what keeps float aggregates and an unordered ``LIMIT`` bit-identical.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.executor.executor import Executor
from repro.plan.expressions import (
    BinaryOp,
    ColumnRef,
    FuncCall,
    InList,
    Like,
    Literal,
)
from repro.plan.logical import GroupBy, Join, Scan
from repro.storage.store import DataStore
from tests.batches import join_rows

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

left_rows = st.lists(
    st.fixed_dictionaries({"k": st.integers(0, 8),
                           "v": st.integers(-100, 100)}),
    max_size=25)
right_rows = st.lists(
    st.fixed_dictionaries({"rk": st.integers(0, 8),
                           "w": st.integers(-100, 100)}),
    max_size=25)


LEFT = Scan("L", ("k", "v"), "g1")
RIGHT = Scan("R", ("rk", "w"), "g2")
#: ``v + w > 0``: a residual over columns of both sides.
RESIDUAL = BinaryOp(">", BinaryOp("+", ColumnRef("v"), ColumnRef("w")),
                    Literal(0))


#: Equi-key count by the kind Figure 9's model labels it (one key is
#: ``hash`` at size, two the compound ``merge`` key, none a ``loop``):
#: the shapes that once ran three kernels and now run one.
KEY_COUNTS = {"hash": 1, "merge": 2, "loop": 0}


def make_join(how="inner", residual=None, keys=1):
    return Join(LEFT, RIGHT, (ColumnRef("k"),) * keys,
                (ColumnRef("rk"),) * keys, residual=residual, how=how)


def reference_join(join, left, right):
    """The row-at-a-time join the batch kernel replaced: for each left
    row in order, the right rows with an equal key in theirs, merged,
    kept if they pass the residual; a left join NULL-extends a row
    nothing kept."""
    def key(row, exprs):
        return tuple(expr.evaluate(row) for expr in exprs)

    out = []
    for lrow in left:
        matched = False
        for rrow in right:
            if key(lrow, join.left_keys) != key(rrow, join.right_keys):
                continue
            merged = {**lrow, **{name: value for name, value in rrow.items()
                                 if name not in join.drop_right}}
            if join.residual is None or join.residual.evaluate(merged):
                matched = True
                out.append(merged)
        if not matched and join.how == "left":
            out.append({**lrow, **{name: None for name in join.right.schema
                                   if name not in join.drop_right}})
    return out


@SETTINGS
@given(left_rows, right_rows, st.sampled_from(["inner", "left"]),
       st.sampled_from([None, RESIDUAL]),
       st.sampled_from(sorted(KEY_COUNTS.values())))
def test_kernels_emit_the_reference_rows_in_order(
        left, right, how, residual, keys):
    join = make_join(how, residual, keys)
    assert join_rows(join, left, right) == reference_join(join, left, right)


#: Keys that tell equality from identity and from hashing: NULLs match
#: NULLs, ``1 == 1.0 == True`` for any number of keys, duplicates.
TRICKY_KEYS = [None, 1, 1.0, True, 0, False, 2, None, 1, 2]


@pytest.mark.parametrize("keys", KEY_COUNTS.values(), ids=KEY_COUNTS)
@pytest.mark.parametrize("how", ["inner", "left"])
@pytest.mark.parametrize("residual", [None, RESIDUAL])
@pytest.mark.parametrize("sizes", [
    (0, 0), (0, 3), (3, 0), (1, 1), (1, 10), (9, 11), (11, 9), (10, 20)])
def test_kernel_order_on_tricky_keys(keys, how, residual, sizes):
    values = TRICKY_KEYS * 3
    left = [{"k": values[i], "v": i - 4} for i in range(sizes[0])]
    right = [{"rk": values[-1 - i], "w": 3 - i} for i in range(sizes[1])]
    join = make_join(how, residual, keys)
    out = join_rows(join, left, right)
    assert out == reference_join(join, left, right)
    assert all(tuple(row) == ("k", "v", "rk", "w") for row in out)


@pytest.mark.parametrize("keys", KEY_COUNTS.values(), ids=KEY_COUNTS)
def test_a_nan_key_matches_only_its_own_object(keys):
    nan = float("nan")
    left = [{"k": nan, "v": 1}, {"k": float("nan"), "v": 2}]
    right = [{"rk": nan, "w": 3}]
    out = join_rows(make_join("left", keys=keys), left, right)
    # Without a key nothing is compared: every pair joins.
    assert [(row["v"], row["w"]) for row in out] == [
        (1, 3), (2, None if keys else 3)]


def test_a_two_key_join_emits_left_order_and_matches_equal_numbers():
    join = Join(LEFT, RIGHT, (ColumnRef("k"), ColumnRef("v")),
                (ColumnRef("rk"), ColumnRef("w")))
    left = [{"k": k, "v": v} for k, v in
            [(2, "b"), (True, "b"), (2, "a"), (None, "a"), (1, "b")]]
    right = [{"rk": k, "w": w} for k, w in
             [(1, "b"), (2, "a"), (None, "a"), (1.0, "b"), (3, "c")]]
    out = join_rows(join, left, right)
    assert out == reference_join(join, left, right)
    assert [(row["k"], row["v"], row["rk"]) for row in out] == [
        (True, "b", 1), (True, "b", 1.0), (2, "a", 2), (None, "a", None),
        (1, "b", 1), (1, "b", 1.0)]


group_rows = st.lists(
    st.fixed_dictionaries({
        "k": st.sampled_from([None, 0, 1, 1.0, True, "a", 2]),
        "x": st.one_of(st.none(), st.floats(-1e6, 1e6, allow_nan=False),
                       st.integers(-5, 5))}),
    max_size=30)


@SETTINGS
@given(group_rows)
def test_groups_keep_first_appearance_and_sum_order(rows):
    """Float sums are order-sensitive: a group's members must be added in
    input order for ``SUM`` / ``AVG`` to be bit-identical."""
    store = DataStore()
    store.put("g", rows)
    plan = GroupBy(Scan("T", ("k", "x"), "g"), (ColumnRef("k"),), (
        FuncCall("COUNT", ()), FuncCall("SUM", (ColumnRef("x"),)),
        FuncCall("AVG", (ColumnRef("x"),)), FuncCall("MAX", (ColumnRef("x"),)),
        FuncCall("COUNT", (ColumnRef("x"),), distinct=True)),
        ("k", "n", "total", "mean", "top", "kinds"))
    groups = {}
    for row in rows:                # the reference aggregate
        groups.setdefault(row["k"], []).append(row)
    expected = []
    for members in groups.values():
        values = [m["x"] for m in members if m["x"] is not None]
        expected.append({
            "k": members[0]["k"], "n": len(members),
            "total": sum(values) if values else None,
            "mean": sum(values) / len(values) if values else None,
            "top": max(values) if values else None,
            "kinds": len(set(values))})
    out = Executor(store).execute(plan).rows
    assert out == expected
    assert [type(row["k"]) for row in out] == [
        type(row["k"]) for row in expected]


@SETTINGS
@given(left_rows, right_rows)
def test_inner_join_output_bounded(left, right):
    join = make_join("inner")
    out = join_rows(join, left, right)
    assert len(out) <= len(left) * len(right)
    # Every output row joins on equal keys.
    for row in out:
        assert row["k"] == row["rk"] or "rk" not in row


@SETTINGS
@given(left_rows, right_rows)
def test_left_join_preserves_left_cardinality_lower_bound(left, right):
    join = make_join("left")
    out = join_rows(join, left, right)
    assert len(out) >= len(left)


# --------------------------------------------------------------------- #
# IN / LIKE properties


@SETTINGS
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=8),
       st.integers(-25, 25))
def test_in_list_equivalent_to_disjunction(values, probe):
    expr = InList(ColumnRef("x"), tuple(Literal(v) for v in values))
    row = {"x": probe}
    assert expr.evaluate(row) == (probe in values)
    negated = InList(ColumnRef("x"), tuple(Literal(v) for v in values),
                     negated=True)
    assert negated.evaluate(row) == (probe not in values)


@SETTINGS
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=8),
       st.randoms(use_true_random=False))
def test_in_list_canonical_order_insensitive(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    a = InList(ColumnRef("x"), tuple(Literal(v) for v in values))
    b = InList(ColumnRef("x"), tuple(Literal(v) for v in shuffled))
    assert a.canonical() == b.canonical()


_text = st.text(alphabet="abc", max_size=6)


@SETTINGS
@given(_text)
def test_like_percent_matches_everything(value):
    expr = Like(ColumnRef("s"), "%")
    assert expr.evaluate({"s": value}) is True


@SETTINGS
@given(_text, _text)
def test_like_exact_pattern_is_equality(value, pattern):
    if "%" in pattern or "_" in pattern:
        return
    expr = Like(ColumnRef("s"), pattern)
    assert expr.evaluate({"s": value}) == (value == pattern)


@SETTINGS
@given(_text, _text)
def test_like_prefix_pattern(value, prefix):
    expr = Like(ColumnRef("s"), prefix + "%")
    assert expr.evaluate({"s": value}) == value.startswith(prefix)


@SETTINGS
@given(_text)
def test_not_like_is_complement(value):
    pattern = "a%"
    positive = Like(ColumnRef("s"), pattern)
    negative = Like(ColumnRef("s"), pattern, negated=True)
    row = {"s": value}
    assert positive.evaluate(row) != negative.evaluate(row)
