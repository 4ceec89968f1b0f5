"""A plan bound from the template cache equals one compiled from scratch.

``ScopeEngine`` keeps the normalized plan of each template's latest
instance as a ``PlanTemplate`` and binds it (new GUIDs, new parameter
values) instead of parsing, building and rewriting the SQL again.  A
cached plan that is not *equivalent* to the from-scratch one is a wrong
answer; a miss is only lost speed.  So two sessions run the same
generated history -- one with the cache, one that never finds anything
in it -- and every job must agree on the rendered plans, every node's
``(strict, recurring, tag, eligible)`` (held to the uncached
``reference_signature``), the tags fetched, the views matched and
proposed, the costs, and the rows.

Dataclass equality is too weak an oracle here (``Literal(1) ==
Literal(True) == Literal(1.0)``), so plans are compared by rendering and
signature, and rows by ``repr``.
"""

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.backends.differential import oracle_config
from repro.catalog import Catalog, schema_of
from repro.common.errors import LintError
from repro.engine import engine as engine_module
from repro.obs import FlightRecorder
from repro.obs.events import JOB_COMPILED
from repro.optimizer.rules import apply_rewrites
from repro.plan.builder import PlanBuilder
from repro.plan.logical import Scan
from repro.plan.normalize import normalize
from repro.signatures import (
    enumerate_subexpressions,
    is_reuse_eligible,
    recurring_signature,
    reference_signature,
    signature_tag,
    strict_signature,
    subexpression_tag,
)
from repro.signatures.template import PlanTemplate
from repro.sql.parser import parse

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

FACTS = schema_of("Facts", [("K", "int"), ("D", "int"), ("Day", "str"),
                            ("V", "float"), ("N", "int"), ("Flag", "bool")])
DIM = schema_of("Dim", [("D", "int"), ("Zone", "str")])
OTHER = schema_of("Other", [("K", "int"), ("W", "float")])


def fact_rows(day):
    return [dict(K=i % 4, D=i % 3, Day=f"d{1 + (i + day) % 2}",
                 V=None if i == 5 else float(i), N=i % 3,
                 Flag=None if i == 7 else i % 2 == 0)
            for i in range(12)]


def install(session):
    session.register_table(FACTS, fact_rows(0))
    session.register_table(DIM, [dict(D=i, Zone="east" if i else "west")
                                 for i in range(3)])
    session.register_table(OTHER, [dict(K=i, W=i / 2) for i in range(4)])


# --------------------------------------------------------------------- #
# generated templates: SQL text over a fixed parameter vocabulary

#: Values per parameter.  ``1`` / ``True`` / ``1.0`` are equal and sign
#: differently; the day parameters collide with each other and with the
#: literal ``'d1'``; ``None`` is a bound NULL.
PARAM_VALUES = {
    "a": ["d1", "d2", None],
    "b": ["d1", "d2", "d0"],
    "n": [1, True, 1.0, 2, 0, None],
    "m": [1, 2, 1.0],
    "x": [1, 1.0, True, 0.5, 3],
    "f": [True, False, 1, None],
    "z": ["east", "west"],
}

ATOMS = [
    "Day = @a", "Day = @b", "Day = 'd1'", "@a = Day", "Day <> @b",
    "N = @n", "N = 1", "N > @m", "N >= @n", "V > @x", "V * @x > 2",
    "Flag = @f", "N IN (1, @n, @m)", "N NOT IN (@m, 0)",
    "(Day = @a OR N = @n)", "N + 1 = 2", "K < 3",
]
where_clauses = st.lists(st.sampled_from(ATOMS), min_size=0, max_size=4).map(
    lambda atoms: " WHERE " + " AND ".join(atoms) if atoms else "")

SOURCES = [
    "Facts",
    "Facts JOIN Dim",
    "Facts JOIN Dim JOIN Other",
    "Facts f JOIN Dim d ON f.D = d.D AND d.Zone = @z",
    "Facts f LEFT JOIN Dim d ON f.D = d.D AND f.N >= @m",
    "(SELECT K, D, Day, V, N, Flag FROM Facts WHERE Day = @a) AS s",
    "(SELECT K, D, Day, V, N, Flag FROM Facts WHERE N = @n) AS s JOIN Dim",
]

#: (select list, tail); every core outputs two columns so UNIONs line up.
SHAPES = [
    ("K, V", ""),
    ("K, V * @x AS scaled", ""),
    ("DISTINCT K, N", ""),
    ("K, CASE WHEN N = @n THEN 1 ELSE 0 END AS hit", ""),
    ("K, SUM(V) AS total", " GROUP BY K"),
    ("K, SUM(V * @x) AS total", " GROUP BY K"),
    ("K, COUNT(*) AS n", " GROUP BY K HAVING COUNT(*) >= @m"),
    ("K, MAX(V) AS top", " GROUP BY K HAVING SUM(V) > @x AND MAX(N) >= @m"),
]


#: A user-defined operator over a core: reusable, non-deterministic, and
#: with a dependency chain too deep to sign (both refused reuse).
PROCESSES = ["", " PROCESS USING Udo", " PROCESS USING Udo NONDETERMINISTIC",
             " PROCESS USING Udo DEPTH 17"]

#: Every core's first output column is ``K``.
ORDERS = ["", " ORDER BY K", " ORDER BY K DESC LIMIT 3", " LIMIT 2"]


@st.composite
def cores(draw):
    source = draw(st.sampled_from(SOURCES))
    items, tail = draw(st.sampled_from(SHAPES))
    if "Facts f " in source:      # qualified: both sides carry a ``D``
        items = items.replace("K,", "f.K,")
        tail = tail.replace("BY K", "BY f.K")
    return (f"SELECT {items} FROM {source}{draw(where_clauses)}{tail}"
            + draw(st.sampled_from(PROCESSES)))


@st.composite
def templates(draw):
    sql = draw(cores())
    if draw(st.booleans()):
        union = draw(st.sampled_from([" UNION ALL ", " UNION "]))
        sql += union + draw(cores())
    return sql + draw(st.sampled_from(ORDERS))


params = st.fixed_dictionaries(
    {name: st.sampled_from(values) for name, values in PARAM_VALUES.items()})

#: What happens between two instances of the template.
EVENTS = ["bulk_update", "gdpr_forget", "runtime_upgrade", "publish",
          "other_template"]
histories = st.lists(
    st.tuples(st.lists(st.sampled_from(EVENTS), max_size=2), params),
    min_size=2, max_size=5)

OTHER_TEMPLATE = "SELECT D, SUM(V) AS total FROM Facts WHERE Day = @a GROUP BY D"


def apply_event(session, event, step):
    engine = session.engine
    if event == "bulk_update":
        engine.bulk_update("Facts", fact_rows(step), at=float(step))
    elif event == "gdpr_forget":
        engine.gdpr_forget("Facts", lambda row: row["K"] != 3,
                           at=float(step))
    elif event == "runtime_upgrade":
        session.handle_runtime_upgrade(f"scope-r{step + 2}")
    elif event == "publish":
        session.analyze_and_publish()
    else:
        run(session, OTHER_TEMPLATE, {"a": "d1"}, step)


def run(session, sql, values, step):
    """The compiled job and its observable outcome."""
    job = session.run(sql, params=values, virtual_cluster="vc",
                      template_id=sql, now=float(step))
    compiled = job.compiled
    optimized = compiled.optimized
    recorder = session.engine.recorder
    costs = None
    if recorder.enabled:   # whole-plan costs live in ``job.compiled`` only
        [*_, event] = (e for e in recorder.events.events(kind=JOB_COMPILED)
                       if e.job_id == job.job_id)
        costs = (event.attrs["estimated_cost"],
                 event.attrs["estimated_cost_without_reuse"])
    return compiled, {
        "logical": optimized.logical.explain(),
        "plan": compiled.plan.explain(),
        "tags": compiled.tags,
        "matched": [match.signature for match in optimized.matches],
        "proposed": [(p.strict_signature, p.recurring_signature)
                     for p in optimized.proposals],
        "costs": costs,
        "rows": sorted(repr(sorted(row.items())) for row in job.rows),
    }


def assert_signed_as_reference(plan, salt):
    for sub in enumerate_subexpressions(plan, salt):
        node = sub.plan
        recurring = reference_signature(node, True, salt)
        assert sub.strict == strict_signature(node, salt) \
            == reference_signature(node, False, salt)
        assert sub.recurring == recurring_signature(node, salt) == recurring
        assert sub.tag == subexpression_tag(node, salt) \
            == signature_tag(recurring)
        assert sub.eligible == is_reuse_eligible(node)


def never_cached(session):
    """The same session with a cache that never finds anything."""
    session.engine.plan_cache.get = lambda key: None
    return session


def replay(sql, history):
    """Run ``history`` on a cached and a from-scratch session, comparing
    every instance; returns the cached session's plan cache."""
    with oracle_config("memory").open_session(
            recorder=FlightRecorder()) as cached, \
            never_cached(oracle_config("memory").open_session(
                recorder=FlightRecorder())) as scratch:
        # The engine's own debug cross-check is the same oracle; keep it
        # out of the way so this test stands on its own comparison.
        cached.engine.config.debug_checks = False
        scratch.engine.config.debug_checks = False
        install(cached)
        install(scratch)
        for step, (events, values) in enumerate(history, start=1):
            for event in events:
                apply_event(cached, event, step)
                apply_event(scratch, event, step)
            compiled, got = run(cached, sql, values, step)
            assert got == run(scratch, sql, values, step)[1]
            salt = cached.engine.signature_salt
            assert_signed_as_reference(compiled.optimized.logical, salt)
            assert_signed_as_reference(compiled.plan, salt)
        assert scratch.engine.plan_cache.hits == 0
        return cached.engine.plan_cache


@SETTINGS
@given(templates(), histories)
def test_cached_instance_equals_compiled_from_scratch(sql, history):
    replay(sql, history)


# --------------------------------------------------------------------- #
# the traps, written out (each returned wrong rows on a skeleton cache
# without the validity rules) and shrunk counter-examples kept as fixtures

SUM_WHERE = "SELECT SUM(N) AS V FROM Facts WHERE "


def instances(*values):
    return [([], dict(v)) for v in values]


def test_skeleton_of_equal_parameters_has_lost_a_conjunct():
    """``Day = @a AND Day = @b`` with ``a == b`` normalizes to one
    conjunct; re-binding that skeleton with ``a != b`` would keep the rows
    of day ``a`` where the right answer is none."""
    cache = replay(SUM_WHERE + "Day = @a AND Day = @b", instances(
        {"a": "d1", "b": "d1"}, {"a": "d1", "b": "d2"},
        {"a": "d2", "b": "d2"}, {"a": "d1", "b": "d2"},
        {"a": "d1", "b": "d2"}))
    assert cache.uncacheable == 2    # both a == b instances were refused
    assert cache.hits == 2           # (d1, d2) again: its skeleton stayed


def test_parameter_beside_an_equal_literal():
    cache = replay(SUM_WHERE + "Day = 'd1' AND Day = @a", instances(
        {"a": "d1"}, {"a": "d2"}, {"a": "d1"}, {"a": "d0"}, {"a": "d0"}))
    assert cache.uncacheable == 2
    assert cache.unstable >= 1       # a = 'd0' orders before the literal


def test_reordered_conjuncts_are_recompiled_not_reused():
    cache = replay(SUM_WHERE + "Day = @a AND Day = @b", instances(
        {"a": "d1", "b": "d2"}, {"a": "d2", "b": "d1"},
        {"a": "d2", "b": "d0"}))
    assert (cache.hits, cache.unstable) == (1, 1)


def test_equal_values_of_different_type_are_different_instances():
    """``1 == True == 1.0``: a "value unchanged, keep the node" shortcut
    that compares by ``==`` alone would sign ``True`` as ``1``."""
    cache = replay(SUM_WHERE + "N = @n", instances(
        {"n": 1}, {"n": True}, {"n": 1.0}, {"n": 1}))
    assert cache.hits == 3


def test_same_parameter_twice_and_unbound_parameters():
    replay("SELECT K, V * @x AS s FROM Facts WHERE V > @x AND N = @n",
           instances({"x": 1, "n": 1}, {"x": 2.0, "n": None},
                     {"x": 2.0, "n": None}))
    # A parameter left unbound is part of the key, not of the skeleton.
    cache = replay(SUM_WHERE + "Day = @a AND N = @n", instances(
        {"a": "d1"}, {"a": "d1", "n": 1}, {"a": "d2"}, {"a": "d2", "n": 2}))
    assert (cache.hits, cache.misses) == (2, 2)


def test_runtime_upgrade_and_forget_need_no_invalidation():
    cache = replay(OTHER_TEMPLATE.replace("SUM(V)", "MAX(V)"), [
        ([], {"a": "d1"}),
        (["publish", "runtime_upgrade"], {"a": "d1"}),
        (["gdpr_forget", "publish"], {"a": "d2"}),
        (["bulk_update"], {"a": "d2"}),
    ])
    assert (cache.hits, cache.unstable) == (3, 0)


def test_schema_change_under_a_skeleton_is_a_miss():
    with oracle_config("memory").open_session() as session:
        install(session)
        _, first = run(session, OTHER_TEMPLATE, {"a": "d1"}, 1)
        # No catalog API changes a schema; model a re-created dataset.
        catalog = session.engine.catalog
        catalog._entries["Facts"].schema = schema_of(
            "Facts", [(c.name, c.dtype) for c in FACTS.columns]
            + [("Extra", "int")])
        second, _ = run(session, OTHER_TEMPLATE, {"a": "d1"}, 2)
        cache = session.engine.plan_cache
        assert (cache.hits, cache.unstable, cache.misses) == (0, 1, 2)
        assert "Extra" not in first["logical"]
        scan = next(node for node in second.plan.walk()
                    if isinstance(node, Scan))
        assert "Extra" in scan.columns


# --------------------------------------------------------------------- #
# what the cache stands on: build and rewrites never read a value


def build_rewritten(catalog, sql, values):
    return apply_rewrites(PlanBuilder(catalog, values).build(parse(sql)))


def rendered(plan, salt="s"):
    return [(sub.depth, sub.plan.describe(), sub.strict, sub.recurring)
            for sub in enumerate_subexpressions(plan, salt)]


@SETTINGS
@given(templates(), params, params)
def test_build_and_rewrites_are_value_independent(sql, first, second):
    """``bind(normalize(rewrite(build(ast, p0))), p1) ==
    normalize(rewrite(build(ast, p1)))``: neither ``PlanBuilder.build`` nor
    ``apply_rewrites`` looks at a GUID or a parameter-bound value
    (``_foldable`` excludes them), so binding commutes with both.  Only
    ``normalize`` does, hence the template's check at use (``None``: the
    instance is compiled from scratch) and rule (i) (a template whose
    normal form lost a conjunct is never cached)."""
    catalog = Catalog()
    for schema in (FACTS, DIM, OTHER):
        catalog.register(schema, row_count=10)
    rewritten = build_rewritten(catalog, sql, first)
    catalog.bulk_update("Facts")
    # The premise, on every example: the two instances differ only in
    # what a recurring signature masks (parameter values and GUIDs).
    assert recurring_signature(rewritten, "s") == recurring_signature(
        build_rewritten(catalog, sql, second), "s")
    skeleton = normalize(rewritten)
    if engine_module._conjunct_count(skeleton) != \
            engine_module._conjunct_count(rewritten):
        event("skipped: rule (i), uncacheable")
        return
    bound = PlanTemplate.of(skeleton, "s").bind(catalog, second, "s")
    if bound is None:
        event("skipped: rule (ii), unstable")
        return
    assert rendered(bound.plan) == rendered(
        normalize(build_rewritten(catalog, sql, second)))
    assert bound.tags == tuple(sorted({
        sub.tag for sub in enumerate_subexpressions(bound.plan, "s")
        if sub.eligible}))
    # And what the bind did not touch is the template's own object.
    assert bound.bind(catalog, second, "s") is bound
    dims = [node for node in skeleton.walk()
            if isinstance(node, Scan) and node.dataset != "Facts"]
    assert all(any(node is kept for kept in bound.plan.walk())
               for node in dims)


# --------------------------------------------------------------------- #
# debug mode: every hit is compiled from scratch too


def test_debug_checks_compare_every_hit_with_a_scratch_compile(monkeypatch):
    with oracle_config("memory").open_session() as session:
        session.engine.config.debug_checks = True
        install(session)
        run(session, OTHER_TEMPLATE, {"a": "d1"}, 1)
        run(session, OTHER_TEMPLATE, {"a": "d2"}, 2)
        assert session.engine.plan_cache.hits == 1

        bind = PlanTemplate.bind

        def forgetful(template, catalog, values, salt):
            """A bind that keeps yesterday's parameter values."""
            return bind(template, catalog, {}, salt)

        monkeypatch.setattr(PlanTemplate, "bind", forgetful)
        with pytest.raises(LintError, match="plan-template cache diverged"):
            session.engine.compile(OTHER_TEMPLATE, {"a": "d1"})


def test_cache_is_bounded_and_evictions_are_counted(monkeypatch):
    monkeypatch.setattr(engine_module, "PLAN_CACHE_SIZE", 4)
    with oracle_config("memory").open_session() as session:
        install(session)
        for threshold in range(10):       # ad-hoc SQL: ten distinct texts
            run(session, f"SELECT K FROM Facts WHERE N > {threshold}", {}, 1)
            run(session, OTHER_TEMPLATE, {"a": "d1"}, 1)   # stays hot
        cache = session.engine.plan_cache
        assert len(cache) == 4
        assert cache.evicted == 11 - 4
        assert cache.hits == 9            # the recurring template survived
