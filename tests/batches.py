"""The one rows <-> batch bridge the tests use to reach the batch kernels.

The executor's operators take and return column batches; tests think in
rows.  Everything that hands rows to a kernel, or reads rows out of one,
goes through here.
"""

from repro.executor.executor import join_batches
from repro.storage.batch import Batch


def batch_of(rows, schema=()):
    return Batch.from_rows(rows, schema)


def join_rows(plan, left, right):
    """``plan`` over two row lists: the output rows, in the join's order."""
    return join_batches(plan, batch_of(left, plan.left.schema),
                        batch_of(right, plan.right.schema)).rows()


def eager_take(batch, index, null=False):
    """``Batch.take`` as first written: every column gathered at once.
    The reference the pending gathers are held to."""
    n = len(index)
    columns, measured = {}, {}
    for name in batch.columns:
        values = batch.columns[name]
        if null:
            values = values + [None]
        columns[name] = [values[i] for i in index]
        width = batch.measured.get(name, (0, 0))[1]
        if width == 8 or (width and not null):
            measured[name] = (width * n, width)
    return Batch(columns, n, measured)


def evaluate_batch(expr, rows):
    """``expr`` compiled and run over ``rows`` as one batch."""
    batch = batch_of(rows)
    return expr.compile()(batch.columns, batch.length)
