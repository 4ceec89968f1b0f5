"""Hash budget: a plan node is signed once, however often it is read.

Signatures are cached on the plan node, so a whole job -- compile,
execute, ``record_history``, ``record_job_into`` -- may hash each distinct
node object at most twice (one strict digest, one recurring digest), and
re-optimizing an already normalized plan may hash nothing new.  A
recurring instance bound from its plan template hashes less still: no
recurring digest at all, and a strict one only where a GUID or a
parameter value changed -- most of those finished from the template's
saved prefix.  The tests count actual ``stable_hash`` calls made from the
signature module.
"""

import pytest

import repro.signatures.signature as sig_module
from repro.backends.differential import oracle_config
from repro.common.clock import SECONDS_PER_DAY
from repro.engine import engine as engine_module
from repro.plan.expressions import ColumnRef, Expr, Literal
from repro.plan.logical import Filter, Scan, Spool, ViewScan
from repro.signatures import (
    enumerate_subexpressions,
    recurring_signature,
    strict_signature,
)
from repro.workload.generator import generate_workload
from repro.workload.tpcds import TPCDS_QUERIES, install_tpcds


def chain(depth):
    plan = Scan("Sales", ("A", "B"), stream_guid="guid-1")
    for index in range(depth):
        plan = Filter(plan, ColumnRef("A" if index % 2 else "B"))
    return plan


@pytest.fixture
def hash_counter(monkeypatch):
    calls = []
    real = sig_module.stable_hash

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sig_module, "stable_hash", counting)
    return calls


def test_enumeration_hash_count_is_linear(hash_counter):
    plan = chain(40)
    nodes = sum(1 for _ in plan.walk())
    enumerate_subexpressions(plan, salt="v1")
    # One strict + one recurring digest per node, nothing recomputed.
    assert len(hash_counter) == 2 * nodes
    enumerate_subexpressions(plan, salt="v1")
    strict_signature(plan, "v1")
    recurring_signature(plan.child, "v1")
    assert len(hash_counter) == 2 * nodes


def test_enumeration_matches_direct_signatures():
    plan = chain(6)
    subs = enumerate_subexpressions(plan, salt="v1")
    for sub in subs:
        assert sub.strict == strict_signature(sub.plan, "v1")
        assert sub.recurring == recurring_signature(sub.plan, "v1")


def test_enumeration_is_root_first():
    plan = chain(4)
    subs = enumerate_subexpressions(plan, salt="v1")
    assert subs[0].plan is plan
    assert subs[0].depth == 0
    assert subs[-1].height == 0  # a leaf comes last
    assert len(subs) == sum(1 for _ in plan.walk())


# --------------------------------------------------------------------- #
# whole jobs


class Budgeted:
    """Runs jobs and holds each to two hashes per distinct plan node."""

    def __init__(self, session, calls):
        # Debug mode compiles every plan-cache hit from scratch as well.
        session.engine.config.debug_checks = False
        self.session = session
        self.calls = calls
        self.operators = set()
        self.hashes = 0
        self.nodes = 0

    def run(self, sql, **kwargs):
        del self.calls[:]
        job = self.session.run(sql, **kwargs)
        compiled = job.run.compiled
        nodes = {id(node): node
                 for plan in (compiled.optimized.logical, compiled.plan)
                 for node in plan.walk()}
        assert len(self.calls) <= 2 * len(nodes), sql
        self.operators.update(type(node) for node in nodes.values())
        self.hashes += len(self.calls)
        self.nodes += len(nodes)
        return job


def test_tpcds_jobs_stay_inside_the_hash_budget(hash_counter):
    with oracle_config("memory").open_session() as session:
        install_tpcds(session.engine, scale_rows=300, seed=42)
        budgeted = Budgeted(session, hash_counter)
        for round_no in (1, 2):
            for offset, (name, sql) in enumerate(TPCDS_QUERIES):
                budgeted.run(sql, template_id=name,
                             now=1000.0 * round_no + offset)
            if round_no == 1:
                session.analyze_and_publish()
        assert session.views_reused > 0
        assert {Spool, ViewScan} <= budgeted.operators
        # Not vacuous: the frontend did sign what it compiled.
        assert budgeted.hashes > budgeted.nodes / 2


def test_cooking_days_with_reuse_stay_inside_the_hash_budget(hash_counter):
    workload = generate_workload(
        name="budget", seed=7, virtual_clusters=2, templates_per_vc=4,
        fact_rows_per_day=240, adhoc_per_day=2)
    with oracle_config("memory").open_session() as session:
        workload.install(session.engine, at=0.0)
        budgeted = Budgeted(session, hash_counter)
        for day in range(2):
            if day > 0:
                workload.cook(session.engine, day)
                session.evict_expired(now=day * SECONDS_PER_DAY)
            for job in workload.jobs_for_day(day):
                budgeted.run(job.template.sql, params=job.params,
                             virtual_cluster=job.virtual_cluster,
                             template_id=job.template.template_id,
                             pipeline_id=job.template.pipeline_id,
                             now=job.submit_time)
            session.analyze_and_publish()
        assert session.views_reused > 0
        assert {Spool, ViewScan} <= budgeted.operators
        assert budgeted.hashes > budgeted.nodes / 2


def test_reoptimizing_a_normalized_plan_signs_nothing_new(hash_counter):
    """The engine hands ``optimize`` the plan it has just normalized (and
    says so): the logical plan is that very object, signed once."""
    with oracle_config("memory").open_session() as session:
        session.engine.config.debug_checks = False
        install_tpcds(session.engine, scale_rows=300, seed=42)
        for name, sql in TPCDS_QUERIES:
            del hash_counter[:]
            compiled = session.engine.compile(sql, reuse_enabled=False)
            logical = compiled.optimized.logical
            assert compiled.plan is logical
            assert len(hash_counter) == 2 * sum(1 for _ in logical.walk())


# --------------------------------------------------------------------- #
# recurring instances: the template binds, signing inherits


@pytest.fixture
def digest_counter(monkeypatch):
    """Operator digests actually hashed, split by ``recurring``."""
    calls = {True: 0, False: 0}
    real = sig_module._node_digest

    def counting(plan, kind, recurring, salt, children):
        if kind is not ViewScan:        # a ViewScan's digest is a field read
            calls[recurring] += 1
        return real(plan, kind, recurring, salt, children)

    monkeypatch.setattr(sig_module, "_node_digest", counting)
    return calls


ROLLED = ("Events", "Sessions")


def own_literals(node):
    """The parameter literals of ``node``'s own expressions, typed."""
    fields = []
    for value in vars(node).values():
        fields += value if isinstance(value, tuple) else [value]
    return [(type(e.value), e.value)
            for expr in fields if isinstance(expr, Expr)
            for e in expr.walk() if isinstance(e, Literal) and e.param_name]


def own_params(node):
    """True if one of ``node``'s own expressions holds a parameter."""
    return bool(own_literals(node))


def rebound_nodes(plan):
    """Nodes of ``plan`` whose subtree holds a rolled Scan or a parameter:
    the only ones a new day's instance may hash, once, strictly."""
    return sum(
        any((isinstance(n, Scan) and n.dataset in ROLLED) or own_params(n)
            for n in node.walk())
        for node in plan.walk())


@pytest.fixture
def step_counter(monkeypatch):
    """Calls of the two steps of an operator digest (``_open`` renders a
    node's own parts, ``_close`` feeds its children and finishes), and of
    the compile frontend a hit must skip, through the modules' globals."""
    calls = dict.fromkeys(("_open", "_close", "parse", "normalize",
                           "enumerate_subexpressions"), 0)
    for module, names in ((sig_module, ("_open", "_close")),
                          (engine_module, ("parse", "normalize",
                                           "enumerate_subexpressions"))):
        for name in names:
            def counting(*args, _name=name, _real=getattr(module, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
    return calls


def test_second_day_instance_hashes_only_rebound_strict_digests(
        hash_counter, digest_counter, step_counter):
    workload = generate_workload(
        name="budget", seed=7, virtual_clusters=2, templates_per_vc=4,
        fact_rows_per_day=240, adhoc_per_day=2)
    with oracle_config("memory").open_session() as session:
        session.engine.config.debug_checks = False
        workload.install(session.engine, at=0.0)
        cache = session.engine.plan_cache
        operators = set()
        latest = {}                     # template id -> its last plan
        from_prefix = rendered = 0
        for day in range(3):
            if day > 0:
                workload.cook(session.engine, day)
                session.evict_expired(now=day * SECONDS_PER_DAY)
            for job in workload.jobs_for_day(day):
                hits = cache.hits
                digest_counter[True] = digest_counter[False] = 0
                step_counter.update(dict.fromkeys(step_counter, 0))
                del hash_counter[:]
                result = session.run(
                    job.template.sql, params=job.params,
                    virtual_cluster=job.virtual_cluster,
                    template_id=job.template.template_id,
                    pipeline_id=job.template.pipeline_id,
                    now=job.submit_time)
                assert (cache.hits == hits + 1) == \
                    (day > 0 and job.template.recurring)
                logical = result.compiled.optimized.logical
                previous = latest.get(job.template.template_id)
                latest[job.template.template_id] = logical
                if cache.hits == hits:
                    continue            # first instance or ad-hoc: a miss
                operators.update(type(node)
                                 for node in result.compiled.plan.walk())
                # Compile, execute, record_history, record_job_into: zero
                # recurring digests, one strict digest per re-bound node,
                # and nothing for parents above a ViewScan or Spool.  A
                # full digest only for a rolled Scan or a node whose own
                # literal changed since yesterday's instance; every other
                # re-bound node finished from the template's saved prefix.
                scans = sum(isinstance(node, Scan) and node.dataset in ROLLED
                            for node in logical.walk())
                changed = sum(own_literals(old) != own_literals(new)
                              for old, new in zip(previous.walk(),
                                                  logical.walk()))
                assert digest_counter[True] == 0
                assert digest_counter[False] == scans + changed
                assert step_counter["_open"] == changed
                assert step_counter["_close"] == rebound_nodes(logical) - scans
                assert len(hash_counter) == scans + step_counter["_close"]
                from_prefix += step_counter["_close"] - step_counter["_open"]
                rendered += changed
                # And none of the compile frontend runs.
                assert step_counter["parse"] == step_counter["normalize"] \
                    == step_counter["enumerate_subexpressions"] == 0
            session.analyze_and_publish()
        assert {Spool, ViewScan} <= operators
        assert cache.hits > 0 and cache.unstable == 0
        assert from_prefix > 0 and rendered > 0


def test_rerunning_an_identical_job_hashes_nothing(hash_counter):
    """Same GUIDs, same values: the re-bind hands back the skeleton's own
    nodes, and a parent rebuilt over a ViewScan or Spool keeps the
    signature of the parent it replaces."""
    with oracle_config("memory").open_session() as session:
        session.engine.config.debug_checks = False
        install_tpcds(session.engine, scale_rows=300, seed=42)
        for offset, (name, sql) in enumerate(TPCDS_QUERIES):
            session.run(sql, template_id=name, now=1000.0 + offset)
        session.analyze_and_publish()
        operators = set()
        for round_no in (2, 3):         # builds the views, then reuses them
            for offset, (name, sql) in enumerate(TPCDS_QUERIES):
                del hash_counter[:]
                job = session.run(sql, template_id=name,
                                  now=1000.0 * round_no + offset)
                assert not hash_counter, name
                operators.update(type(node)
                                 for node in job.compiled.plan.walk())
        assert {Spool, ViewScan} <= operators
        assert session.engine.plan_cache.hits == 2 * len(TPCDS_QUERIES)
