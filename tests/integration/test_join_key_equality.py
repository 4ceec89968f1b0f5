"""One key-equality rule for every join, on both backends.

Equi-keys match by Python ``==`` -- ``None`` pairs with ``None`` and
``1 == 1.0 == True`` -- for one key or three; the SQLite lowering says
the same with ``IS``.  A multi-key join once compared keys by sort rank
on the in-memory backend (``True`` apart from ``1``), so it disagreed
with a one-key join and with SQLite.  NaN is excluded: SQLite stores it
as NULL, an accepted divergence.
"""

import pytest

from repro.backends import create_backend
from repro.backends.differential import canonical_rows
from repro.catalog import schema_of
from repro.plan.expressions import BinaryOp, ColumnRef
from repro.plan.logical import Join, Scan

VALUES = [None, True, 1, 1.0, 0, False, 2, "1", "", 0.0, 2.5]
KEYS = (("k", "k2"), ("f", "f2"), ("g", "g2"))
#: A residual over columns of both sides.
RESIDUAL = BinaryOp(">", ColumnRef("w"), ColumnRef("v"))
A = schema_of("A", [(name, "int") for name in ("k", "f", "g", "v")])
B = schema_of("B", [(name, "int") for name in ("k2", "f2", "g2", "w")])
#: Every value against every value, under a second key whose equal
#: members differ in type from one side to the other.
A_ROWS = [dict(k=a, f=b, g=a, v=3 * i + j) for i, a in enumerate(VALUES)
          for j, b in enumerate((True, 0, None))]
B_ROWS = [dict(k2=a, f2=b, g2=a, w=3 * i + j) for i, a in enumerate(VALUES)
          for j, b in enumerate((1.0, False, None))]


def rows_on(name, plan, left_rows, right_rows):
    with create_backend(name) as backend:
        backend.load_table(A, "guid-a", left_rows)
        backend.load_table(B, "guid-b", right_rows)
        return backend.execute(plan).rows


def join_on(keys, how="inner", residual=None):
    return Join(Scan("A", A.column_names, "guid-a"),
                Scan("B", B.column_names, "guid-b"),
                tuple(ColumnRef(left) for left, _ in KEYS[:keys]),
                tuple(ColumnRef(right) for _, right in KEYS[:keys]),
                residual=residual, how=how)


@pytest.mark.parametrize("residual", [None, RESIDUAL])
@pytest.mark.parametrize("how", ["inner", "left"])
@pytest.mark.parametrize("keys", [1, 2, 3])
def test_backends_agree_on_mixed_type_keys(keys, how, residual):
    plan = join_on(keys, how, residual)
    memory = rows_on("memory", plan, A_ROWS, B_ROWS)
    assert canonical_rows(memory) == canonical_rows(
        rows_on("sqlite", plan, A_ROWS, B_ROWS))


def test_true_matches_one_in_a_two_key_join():
    left = [dict(k=7, f=True, g=None, v=i) for i in range(12)]
    right = [dict(k2=7, f2=1, g2=None, w=i) for i in range(12)]
    for name in ("memory", "sqlite"):
        assert len(rows_on(name, join_on(2), left, right)) == 144
