"""Where the invariants of the retired lint rules are enforced now.

The rule framework (``repro lint``, ``repro.analysis``) is gone: a census
(its per-rule table is in CHANGES.md, PR 31 and PR 47) seeded one real
violation per rule into ``src/`` and tier-1 caught every one without
debug checks.  The tests below keep the rule
tests' names where a guard still rejects the same corruption at unit
level: an operator constructor, the executor's column resolution,
matching's availability and cost gates, the strict signature, buildout.
The rest pin the debug-mode switch and the one assertion ``optimize``
still makes under it.
"""

import pytest

from repro.catalog import Catalog, schema_of
from repro.common.errors import ExecutionError, LintError, PlanError
from repro.executor import Executor
from repro.optimizer import (
    Annotation,
    OptimizerContext,
    insert_spools,
    match_views,
    optimize,
)
from repro.optimizer.view_buildout import view_path_for
from repro.optimizer.view_matching import view_scan_for
from repro.plan.expressions import ColumnRef, FuncCall, Literal
from repro.plan.logical import (
    Filter,
    GroupBy,
    Join,
    Process,
    Project,
    Scan,
    Spool,
    Union,
)
from repro.signatures.signature import (
    recurring_signature,
    signature_tag,
    strict_signature,
)
from repro.storage import DataStore
from repro.storage.views import ViewStore
from tests.properties.test_analysis_properties import probe_inputs, rebuild


def scan(name="Sales", columns=("A", "B"), guid="guid-1"):
    return Scan(name, tuple(columns), stream_guid=guid)


def _optimizer_ctx(views=None):
    catalog = Catalog()
    catalog.register(schema_of("Sales", [("A", "int"), ("B", "int")]), 1000)
    return OptimizerContext(catalog=catalog, view_store=views or ViewStore(),
                            salt="v1", trace_id="job-7", debug_checks=True)


# --------------------------------------------------------------------- #
# the debug-mode assertion in ``optimize``


def test_clean_plan_yields_no_findings():
    plan = Project(Filter(scan(), ColumnRef("A")), (ColumnRef("A"),), ("A",))
    optimized = optimize(plan, _optimizer_ctx(), normalized=True)
    assert optimized.logical is plan


def test_assert_stage_sound_passes_clean_plan():
    # A sound plan claimed normalized compiles in debug mode through
    # matching and buildout with nothing to reuse or build.
    plan = Project(scan(), (ColumnRef("A"),), ("A",))
    optimized = optimize(plan, _optimizer_ctx(), normalized=True)
    assert optimized.logical is plan
    assert optimized.plan is plan
    assert not optimized.matches and not optimized.proposals


def test_unnormalized_plan_raises_lint_error_in_debug_mode():
    # Filter pushdown moves this filter below the projection, so the plan
    # is not its own normal form: claiming it is must fail the compile.
    plan = Filter(Project(scan(), (ColumnRef("A"),), ("A",)),
                  ColumnRef("A"))
    with pytest.raises(LintError, match="unnormalized"):
        optimize(plan, _optimizer_ctx(), normalized=True)


# --------------------------------------------------------------------- #
# operator constructors: arity


def test_project_arity_corruption_detected():
    with pytest.raises(PlanError, match="align"):
        Project(scan(), (ColumnRef("A"), ColumnRef("B")), ("A",))


def test_groupby_arity_corruption_detected():
    with pytest.raises(PlanError, match="cover keys then aggregates"):
        GroupBy(scan(), (ColumnRef("A"),),
                (FuncCall("SUM", (ColumnRef("B"),)),),
                ("A", "total", "extra"))


def test_union_arity_mismatch_detected():
    with pytest.raises(PlanError, match="equal arity"):
        Union((scan("L", ("A", "B"), "guid-l"), scan("R", ("A",), "guid-r")))


def test_truncated_join_keys_detected():
    with pytest.raises(PlanError, match="equal length"):
        Join(scan("L", ("A", "B"), "guid-l"), scan("R", ("A", "C"), "guid-r"),
             (ColumnRef("A"), ColumnRef("B")), (ColumnRef("A"),))


# --------------------------------------------------------------------- #
# the executor: every column reference resolves or the job fails


def _executor():
    store = DataStore()
    store.put("guid-l", [dict(A=1), dict(A=2)])
    store.put("guid-r", [dict(C=1), dict(C=3)])
    return Executor(store)


def test_join_keys_must_resolve_against_own_side():
    left, right = scan("L", ("A",), "guid-l"), scan("R", ("C",), "guid-r")
    plan = Join(left, right, (ColumnRef("C"),), (ColumnRef("C"),))
    with pytest.raises(ExecutionError, match="'C' not found"):
        _executor().execute(plan)


def test_unresolvable_filter_column_detected():
    plan = Filter(scan("L", ("A",), "guid-l"), ColumnRef("Missing"))
    with pytest.raises(ExecutionError, match="'Missing' not found"):
        _executor().execute(plan)


def test_qualified_column_suffix_resolution_accepted():
    store = DataStore()
    store.put("guid-1", [{"t.A": 1, "t.B": 2}, {"t.A": 3, "t.B": 0}])
    plan = Filter(scan(columns=("t.A", "t.B")), ColumnRef("B"))
    assert Executor(store).execute(plan).rows == [{"t.A": 1, "t.B": 2}]


# --------------------------------------------------------------------- #
# view matching: only an available, cheaper view of the same strict
# signature becomes a ViewScan


def _grouped(guid="guid-1"):
    return GroupBy(Filter(scan(guid=guid), ColumnRef("A")), (ColumnRef("A"),),
                   (FuncCall("SUM", (ColumnRef("B"),)),), ("A", "total"))


def _seal(ctx, definition, rows=5):
    sig = strict_signature(definition, "v1")
    ctx.view_store.begin_materialize(
        sig, view_path_for("vc", sig), definition.schema, "vc", now=0.0,
        definition=definition,
        recurring_signature=recurring_signature(definition, "v1"))
    ctx.view_store.seal(sig, now=0.0, row_count=rows, size_bytes=rows * 10)
    return sig


def _matched(plan, ctx, now):
    outcome = match_views(plan, ctx, now)
    outcome.release_claims(ctx.view_store)
    return outcome


def _reads_a_view(plan, ctx, now):
    return _matched(plan, ctx, now).reused


def test_viewscan_over_missing_view_detected():
    assert not _reads_a_view(_grouped(), _optimizer_ctx(), now=1.0)


def test_viewscan_over_expired_view_detected():
    ctx = _optimizer_ctx(ViewStore(ttl_seconds=10.0))
    _seal(ctx, _grouped())
    assert _reads_a_view(_grouped(), ctx, now=5.0)
    assert not _reads_a_view(_grouped(), ctx, now=50.0)


def test_stale_view_guid_drift_detected():
    # The strict signature hashes the stream GUID: after a cooking run
    # the same query is a different signature, so the old view is unseen.
    ctx = _optimizer_ctx()
    _seal(ctx, _grouped(guid="guid-1"))
    assert _reads_a_view(_grouped(guid="guid-1"), ctx, now=1.0)
    assert not _reads_a_view(_grouped(guid="guid-2"), ctx, now=1.0)


def test_cost_sanity_rejects_unprofitable_match():
    ctx = _optimizer_ctx()
    _seal(ctx, _grouped(), rows=10_000_000)  # reading it costs more
    assert not _reads_a_view(_grouped(), ctx, now=1.0)


def test_cost_sanity_accepts_profitable_match():
    ctx = _optimizer_ctx()
    _seal(ctx, _grouped(), rows=5)
    plan = _grouped()
    outcome = _matched(plan, ctx, now=1.0)
    (match,) = outcome.matches
    model, estimator = ctx.cost_model, ctx.estimator
    assert 0 <= match.cost_with == model.plan_cost(outcome.plan, estimator) \
        < model.plan_cost(plan, estimator)


# --------------------------------------------------------------------- #
# view buildout


def test_view_scan_for_helper_agrees_with_store_schema():
    store = ViewStore()
    definition = scan(columns=("A", "B"))
    sig = strict_signature(definition, "v1")
    view = store.begin_materialize(sig, view_path_for("vc", sig),
                                   ("A", "B"), "vc", now=0.0,
                                   definition=definition,
                                   recurring_signature="rec")
    store.seal(sig, now=1.0, row_count=5, size_bytes=50)
    node = view_scan_for(view, definition.schema, "rec")
    assert node.columns == view.schema == definition.schema
    assert node.view_path == view.path and node.signature == sig


def _annotate_all(ctx, plan):
    for node in plan.walk():
        recurring = recurring_signature(node, "v1")
        ctx.annotations[recurring] = Annotation(recurring,
                                                signature_tag(recurring))


def test_spool_path_must_encode_signature():
    ctx = _optimizer_ctx()
    _annotate_all(ctx, _grouped())
    built = insert_spools(_grouped(), ctx, now=0.0)
    spools = [node for node in built.plan.walk() if isinstance(node, Spool)]
    assert spools
    assert all(spool.signature in spool.view_path for spool in spools)


def test_nondeterministic_process_under_spool_detected():
    plan = Filter(Process(scan(), "Udo", output_columns=("A",),
                          deterministic=False), ColumnRef("A"))
    ctx = _optimizer_ctx()
    _annotate_all(ctx, plan)
    assert not insert_spools(plan, ctx, now=0.0).proposals


def test_spool_wrapping_spool_detected():
    # A Spool's view is in flight in the store from the moment buildout
    # inserts it, so a second pass finds it materializing and leaves it.
    child = Filter(scan(), ColumnRef("A"))
    sig = strict_signature(child, "v1")
    path = view_path_for("vc", sig)
    spooled = Project(Spool(child, signature=sig, view_path=path),
                      (ColumnRef("A"),), ("A",))
    ctx = _optimizer_ctx()
    ctx.view_store.begin_materialize(sig, path, child.schema, "vc", now=0.0,
                                     definition=child)
    _annotate_all(ctx, spooled)
    built = insert_spools(spooled, ctx, now=0.0)
    assert not any(isinstance(node, Spool) and isinstance(node.child, Spool)
                   for node in built.plan.walk())
    assert built.proposals  # the Project above was still spooled


# --------------------------------------------------------------------- #
# signatures: the property tests' rebuild and probe, on one plan


def test_real_operators_pass_mask_and_determinism():
    plan = Filter(scan(), Literal("d0001", param_name="runDate"))
    clone, (probed, _) = rebuild(plan), probe_inputs(plan)
    assert strict_signature(clone, "v1") == strict_signature(plan, "v1")
    assert recurring_signature(clone, "v1") == \
        recurring_signature(plan, "v1")
    assert recurring_signature(probed, "v1") == \
        recurring_signature(plan, "v1")
    assert strict_signature(probed, "v1") != strict_signature(plan, "v1")


def test_probe_inputs_rewrites_guids_and_params():
    plan = Filter(scan(guid="g0"), Literal("d0001", param_name="runDate"))
    probed, changed = probe_inputs(plan)
    assert changed
    assert probed.child.stream_guid != "g0"
    assert probed.predicate.value != "d0001"
    assert probed.predicate.param_name == "runDate"


# --------------------------------------------------------------------- #
# the debug-mode switch


def test_engine_debug_checks_flag_threads_from_config():
    from repro.engine.engine import EngineConfig, ScopeEngine

    engine = ScopeEngine(config=EngineConfig(debug_checks=True))
    engine.register_table(
        schema_of("Sales", [("A", "int"), ("B", "int")]),
        [dict(A=i, B=i * 2) for i in range(5)])
    run = engine.run_sql("SELECT A FROM Sales WHERE B > 2")
    assert len(run.rows) == 3  # compile passed its own debug checks


def test_debug_checks_env_opt_in(monkeypatch):
    """One reader of ``REPRO_DEBUG_CHECKS``: the engine's default and
    ``debug_checks_enabled`` agree on every spelling."""
    from repro.engine.engine import EngineConfig, debug_checks_enabled

    monkeypatch.delenv("REPRO_DEBUG_CHECKS", raising=False)
    assert EngineConfig().debug_checks is debug_checks_enabled() is False
    for value, enabled in (("", False), ("0", False), ("false", False),
                           ("1", True)):
        monkeypatch.setenv("REPRO_DEBUG_CHECKS", value)
        assert EngineConfig().debug_checks is enabled, value
        assert debug_checks_enabled() is enabled, value
