"""The lifetime of a column fact, from the blob that records it to the
operators that carry or drop it.

``DataStore.put_batch`` records, once per blob, the columns whose every
value is one value of one exact type; ``Batch.select`` carries them
through renames, ``take`` keeps them unless it NULL-extends, ``beside``
merges them (the right side's columns win), and a batch whose columns an
operator computed records none.  A ``Filter`` drops the conjuncts they
decide -- and when that is all of them hands on its child's batch, with
the statistics the full pass reports.
"""

from repro.backends.memory import InMemoryBackend
from repro.executor.executor import Executor
from repro.plan.expressions import BinaryOp, ColumnRef, FuncCall, Literal
from repro.plan.logical import Filter, GroupBy, Project, Scan, Spool
from repro.storage.batch import NO_FACTS, Batch
from repro.storage.store import DataStore

ROWS = [{"day": "d1", "n": 1, "x": 0.5, "ok": True},
        {"day": "d1", "n": 2, "x": 0.5, "ok": True},
        {"day": "d1", "n": 3, "x": -0.0, "ok": True}]
SCAN = Scan("T", ("day", "n", "x", "ok"), "guid-1")
TODAY = BinaryOp("=", ColumnRef("day"), Literal("d1"))


def stored(rows=ROWS):
    store = DataStore()
    store.put("guid-1", rows)
    return store


def test_a_stream_records_its_constant_columns_once():
    backend = InMemoryBackend()
    backend.load_table(None, "guid-1", ROWS)
    assert backend.store.read("guid-1").facts == {"day": "d1", "ok": True}
    # NULLs, mixed exact types and an empty stream record nothing.
    for rows in ([{"a": 1}, {"a": None}], [{"a": 1}, {"a": True}],
                 [{"a": 1.0}, {"a": 1}], []):
        backend.load_table(None, "guid-2", rows)
        assert backend.store.read("guid-2").facts is NO_FACTS, rows


def test_a_spooled_view_records_the_facts_of_what_it_wrote():
    store = stored()
    plan = Spool(Filter(SCAN, BinaryOp("<", ColumnRef("n"), Literal(3))),
                 "sig", "views/v1")
    Executor(store).execute(plan)
    assert store.read("views/v1").facts == {"day": "d1", "x": 0.5,
                                            "ok": True}


def test_select_take_and_beside_carry_facts():
    batch = stored().read("guid-1")
    renamed = batch.select(["day", "n", "gone"], ["d", "n", "gone"])
    assert renamed.facts == {"d": "d1"}
    assert batch.take([2, 0]).facts is batch.facts
    assert batch.take([0, 3], null=True).facts is NO_FACTS
    # ``other``'s columns win: its fact, or none where it records none.
    other = Batch({"ok": [False] * 3, "day": ["d2", "d3", "d4"]}, 3,
                  facts={"ok": False})
    assert batch.beside(other).facts == {"ok": False}
    assert other.beside(batch).facts == batch.facts


def test_a_batch_without_facts_allocates_none():
    batch = Batch.from_rows(ROWS)
    assert batch.facts is NO_FACTS
    assert batch.select(["day"]).facts is NO_FACTS
    assert batch.take([0]).facts is NO_FACTS
    assert batch.beside(batch).facts is NO_FACTS


def test_computed_columns_carry_no_facts():
    store = stored()
    project = Project(SCAN, (ColumnRef("day"), ColumnRef("ok")),
                      ("day", "ok"))
    group = GroupBy(SCAN, (ColumnRef("day"),),
                    (FuncCall("COUNT", ()),), ("day", "rows"))
    for plan in (project, group):
        result = Executor(store, capture_rows=True).execute(plan)
        assert result.node_batches[id(plan)].facts is NO_FACTS, \
            plan.explain()


def stats(result):
    return [(s.operator, s.rows_in, s.rows_out, s.bytes_out)
            for _, s in result.node_stats]


def test_a_filter_its_facts_decide_hands_on_its_child():
    plan = Filter(SCAN, BinaryOp("AND", TODAY, BinaryOp(
        "=", ColumnRef("ok"), Literal(True))))
    result = Executor(stored(), capture_rows=True).execute(plan)
    assert result.node_batches[id(plan)] is result.node_batches[id(SCAN)]
    assert [row["n"] for row in result.rows] == [1, 2, 3]
    # The statistics of the full pass over a blob that records no facts.
    plain = stored()
    plain.read("guid-1").facts = NO_FACTS
    assert stats(result) == stats(Executor(plain).execute(plan))


def test_a_filter_keeps_what_its_facts_do_not_decide():
    store = stored()
    for predicate, kept in [
            (BinaryOp("AND", TODAY, BinaryOp(">", ColumnRef("n"),
                                             Literal(1))), [2, 3]),
            (BinaryOp("=", ColumnRef("day"), Literal("d2")), []),
            (BinaryOp("<>", ColumnRef("x"), Literal(0.0)), [1, 2])]:
        rows = Executor(store).execute(Filter(SCAN, predicate)).rows
        assert [row["n"] for row in rows] == kept, predicate.to_sql()
