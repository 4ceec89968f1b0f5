"""Signatures cached on the plan node equal the uncached reference.

``strict_signature`` / ``recurring_signature`` / ``subexpression_tag`` /
``is_reuse_eligible`` answer from a cache carried by each frozen plan
node.  These properties hold the cache to the full recursion
(``reference_signature``) over generated plans and two salts, through
every way the optimizer derives one plan from another -- so no digest
outlives the node, or the salt, it was computed for -- and hold the
rewrite rules to the identity contract the cache depends on: a plan that
is already rewritten and normalized comes back as the same object.
"""

import dataclasses
import gc
import sys
import threading

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, schema_of
from repro.engine import ScopeEngine
from repro.optimizer.rules import apply_rewrites, fold_constants, push_filters
from repro.plan.expressions import BinaryOp, ColumnRef, FuncCall, Literal
from repro.plan.logical import (
    Distinct,
    Filter,
    GroupBy,
    Join,
    Limit,
    Process,
    Project,
    Scan,
    Sort,
    Spool,
    Union,
    ViewScan,
)
from repro.plan.normalize import normalize
from repro.signatures import signature as signature_module
from repro.signatures.signature import with_children_signed_alike
from repro.signatures.template import PlanTemplate
from repro.signatures import (
    MAX_DEPENDENCY_DEPTH,
    is_reuse_eligible,
    recurring_signature,
    reference_signature,
    signature_tag,
    strict_signature,
    subexpression_tag,
)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
SALTS = ("scope-r1", "scope-r2")

# --------------------------------------------------------------------- #
# generated plans: every operator, every node with schema ("a", "b")

A, B = ColumnRef("a"), ColumnRef("b")

literals = st.one_of(
    st.integers(0, 9).map(Literal),
    st.integers(0, 9).map(lambda v: Literal(v, param_name="p")),
    st.integers(0, 9).map(                       # foldable arithmetic
        lambda v: BinaryOp("+", Literal(v), Literal(1))))
comparisons = st.builds(
    BinaryOp, st.sampled_from(["=", "<", ">=", "<>"]),
    st.sampled_from([A, B]), literals)
predicates = st.recursive(
    comparisons,
    lambda inner: st.builds(BinaryOp, st.sampled_from(["AND", "AND", "OR"]),
                            inner, inner),
    max_leaves=4)

scans = st.builds(
    Scan, st.sampled_from(["S", "T", "U"]), st.just(("a", "b")),
    st.sampled_from([None, "guid-1", "guid-2"]))

projections = st.sampled_from([
    (A, B), (B, A), (A, BinaryOp("+", B, Literal(1))),
    (BinaryOp("*", A, BinaryOp("+", Literal(2), Literal(3))), B)])

join_keys = st.sampled_from([
    ((), ()), ((A,), (A,)), ((A, B), (A, B)), ((B, A), (B, A)),
    ((B, A), (A, B))])


def _operators(children):
    return st.one_of(
        st.builds(Filter, children, predicates),
        st.builds(lambda child, exprs: Project(child, exprs, ("a", "b")),
                  children, projections),
        st.builds(
            lambda left, right, keys, how, residual: Join(
                left, right, keys[0], keys[1], residual, how,
                drop_right=("a", "b")),
            children, children, join_keys, st.sampled_from(["inner", "left"]),
            st.one_of(st.none(), comparisons)),
        st.builds(
            lambda child, fn: GroupBy(child, (A,), (FuncCall(fn, (B,)),),
                                      ("a", "b")),
            children, st.sampled_from(["SUM", "MAX"])),
        st.builds(lambda left, right, every: Union((left, right), every),
                  children, children, st.booleans()),
        st.builds(Distinct, children),
        st.builds(lambda child, asc: Sort(child, (A,), (asc,)),
                  children, st.booleans()),
        st.builds(Limit, children, st.integers(0, 5)),
        st.builds(
            lambda child, ok, depth: Process(child, "Udo", (), ok, depth),
            children, st.booleans(),
            st.sampled_from([0, 3, MAX_DEPENDENCY_DEPTH,
                             MAX_DEPENDENCY_DEPTH + 1])),
    )


plans = st.recursive(scans, _operators, max_leaves=5)


def disqualifies(node):
    """Whether ``node`` alone makes every plan holding it ineligible."""
    return isinstance(node, Process) and (
        not node.deterministic or node.dependency_depth > MAX_DEPENDENCY_DEPTH)


def eligible_by_walk(plan):
    """``is_reuse_eligible`` as first written: a walk of the subtree."""
    return not any(map(disqualifies, plan.walk()))


def assert_matches_reference(plan, salts=SALTS):
    for salt in salts + salts[:1]:          # and back to the first salt
        for node in plan.walk():
            recurring = reference_signature(node, True, salt)
            assert strict_signature(node, salt) == \
                reference_signature(node, False, salt)
            assert recurring_signature(node, salt) == recurring
            assert subexpression_tag(node, salt) == signature_tag(recurring)
            assert is_reuse_eligible(node) == eligible_by_walk(node)


def substitute(plan, target, replacement, rebuild=None):
    """``plan`` with the node ``target`` (by identity) replaced; parents
    are rebuilt by ``rebuild(parent, children)``, default
    ``with_children``."""
    if plan is target:
        return replacement
    children = plan.children()
    rebuilt = [substitute(child, target, replacement, rebuild)
               for child in children]
    if all(new is old for new, old in zip(rebuilt, children)):
        return plan
    if rebuild is not None:
        return rebuild(plan, rebuilt)
    return plan.with_children(rebuilt)


# --------------------------------------------------------------------- #
# cached == reference


@given(plan=plans)
@SETTINGS
def test_cached_signatures_equal_the_reference(plan):
    assert_matches_reference(plan)
    for node in plan.walk():
        assert strict_signature(node, SALTS[0]) != \
            strict_signature(node, SALTS[1])


@given(plan=plans, other=plans, data=st.data())
@SETTINGS
def test_derived_plans_start_unsigned(plan, other, data):
    """Sign a plan, derive another from it the ways the optimizer does,
    and the derived plan -- sharing signed subtrees -- still matches."""
    assert_matches_reference(plan)
    node = data.draw(st.sampled_from(list(plan.walk())))

    # with_children: a different subtree under the same operator.
    assert_matches_reference(substitute(plan, node, other))

    # dataclasses.replace: a new input version under the same template.
    scan = next(n for n in plan.walk() if isinstance(n, Scan))
    bumped = dataclasses.replace(scan, stream_guid="guid-next")
    rebound = substitute(plan, scan, bumped)
    assert_matches_reference(rebound)
    for salt in SALTS:
        assert strict_signature(bumped, salt) != strict_signature(scan, salt)
        assert recurring_signature(rebound, salt) == \
            recurring_signature(plan, salt)

    for salt in SALTS:
        strict = strict_signature(node, salt)
        recurring = recurring_signature(node, salt)
        stand_ins = (
            # view matching: a ViewScan inherits what it replaced;
            ViewScan(signature=strict, view_path="cloudviews/vc/x",
                     columns=node.schema, recurring=recurring),
            # view buildout: a Spool is transparent.
            Spool(node, signature=strict, view_path="cloudviews/vc/x"))
        for stand_in in stand_ins:
            derived = substitute(plan, node, stand_in)
            assert_matches_reference(derived, salts=(salt,))
            assert strict_signature(derived, salt) == \
                strict_signature(plan, salt)
            assert recurring_signature(derived, salt) == \
                recurring_signature(plan, salt)


@given(plan=plans, data=st.data())
@SETTINGS
def test_parents_rebuilt_over_alike_children_keep_their_signature(plan, data):
    """Matching and buildout rebuild parents with
    ``with_children_signed_alike``: over a ViewScan or Spool that signs as
    the node it replaced the parent's signature is copied, hashing
    nothing; over a child that signs differently it is not."""
    node = data.draw(st.sampled_from(list(plan.walk())))
    salt = SALTS[0]
    strict_signature(plan, salt)     # as the engine's enumeration has
    strict = strict_signature(node, salt)
    recurring = recurring_signature(node, salt)

    def alike(parent, children):
        return with_children_signed_alike(parent, children, salt)

    def view(recurring_signature):
        return ViewScan(signature=strict, view_path="cloudviews/vc/x",
                        columns=node.schema, recurring=recurring_signature)

    for stand_in in (view(recurring),
                     Spool(node, signature=strict, view_path="p")):
        hashes = count_hashes()
        with hashes:
            derived = substitute(plan, node, stand_in, rebuild=alike)
            for parent in derived.walk():
                strict_signature(parent, salt)
        assert hashes.calls == 0
        assert_matches_reference(derived)
    # A view recorded under another recurring signature (``Day = 'd1'``
    # and ``Day = @d`` bound to 'd1' are one strict computation): not
    # alike, so parents are hashed afresh and still match.
    assert_matches_reference(
        substitute(plan, node, view("another-recurring"), rebuild=alike))


@given(plan=plans, value=st.integers(0, 9))
@SETTINGS
def test_rebound_instance_inherits_recurring_and_matches_reference(
        plan, value):
    """``PlanTemplate.bind``: an instance bound from a signed template (new
    GUIDs, a new parameter value) hashes no recurring digest, inherits each
    position's recurring signature and tag, and equals the reference all
    the same."""
    catalog = Catalog()
    for name in ("S", "T", "U"):
        catalog.register(schema_of(name, [("a", "int"), ("b", "int")]))
    plan = normalize(plan)              # a template is a normal form
    for salt in SALTS:
        template = PlanTemplate.of(plan, salt)
        recurring = count_hashes(recurring_only=True)
        with recurring:
            bound = template.bind(catalog, {"p": value}, salt)
        assert recurring.calls == 0
        if bound is None:               # not its own normal form: a miss
            event("skipped: rule (ii), unstable")
        else:
            for new, old in zip(bound.nodes, template.nodes):
                assert recurring_signature(new, salt) == \
                    recurring_signature(old, salt)
                assert subexpression_tag(new, salt) == \
                    subexpression_tag(old, salt)
            assert_matches_reference(bound.plan)
            assert bound.bind(catalog, {"p": value}, salt) is bound
        catalog.bulk_update("T")


class count_hashes:
    """Counts operator digests hashed inside the ``with`` block."""

    def __init__(self, recurring_only=False):
        self.recurring_only = recurring_only
        self.calls = 0

    def __enter__(self):
        self.real = signature_module._node_digest

        def counting(plan, kind, recurring, salt, children):
            if kind is not ViewScan and (recurring
                                         or not self.recurring_only):
                self.calls += 1
            return self.real(plan, kind, recurring, salt, children)

        signature_module._node_digest = counting
        return self

    def __exit__(self, *exc):
        signature_module._node_digest = self.real


@given(plan=plans)
@SETTINGS
def test_runtime_upgrade_resigns_the_same_nodes(plan):
    engine = ScopeEngine()
    before = engine.signature_salt
    old = strict_signature(plan, before)
    engine.set_runtime_version(before + "-next")
    after = engine.signature_salt
    assert strict_signature(plan, after) == \
        reference_signature(plan, False, after) != old
    assert recurring_signature(plan, after) == \
        reference_signature(plan, True, after)
    assert strict_signature(plan, before) == old


def test_eight_threads_signing_one_shared_definition_agree(monkeypatch):
    # A view's ``definition`` is one plan object shared by every compiling
    # thread; build it deep enough that the threads interleave mid-tree.
    definition = Scan("S", ("a", "b"), stream_guid="guid-1")
    for level in range(120):
        definition = Filter(definition, BinaryOp(
            "=", A, Literal(level, param_name="p" if level % 3 else None)))
        if level % 10 == 0:
            definition = Union(
                (definition, Process(definition, "Udo", (), True, level % 20)),
                True)
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 5000))
    nodes = list(definition.walk())[::7]
    # The expected values are the reference recursion, computed once per
    # shared node: the definition's subtrees are shared, so unmemoised it
    # re-derives them millions of times.  ``reference_signature`` recurses
    # through its module's global, so memoising that global memoises every
    # level of the unchanged recursion; eligibility is the walk's "no node
    # below disqualifies", one node and its children at a time.
    signed, eligible = {}, {}

    def reference_once(node, recurring, salt=""):
        key = (id(node), recurring, salt)
        if key not in signed:
            signed[key] = reference_signature(node, recurring, salt)
        return signed[key]

    def eligible_once(node):
        if id(node) not in eligible:
            eligible[id(node)] = not disqualifies(node) and all(
                map(eligible_once, node.children()))
        return eligible[id(node)]

    with monkeypatch.context() as patch:
        patch.setattr(signature_module, "reference_signature", reference_once)
        expected = [(reference_once(node, False, "v1"),
                     reference_once(node, True, "v1"),
                     signature_tag(reference_once(node, True, "v1")),
                     eligible_once(node)) for node in nodes]

    barrier = threading.Barrier(8)
    seen, errors = [], []

    def sign(index):
        try:
            barrier.wait(timeout=30)
            order = nodes if index % 2 else nodes[::-1]
            got = {id(node): (strict_signature(node, "v1"),
                              recurring_signature(node, "v1"),
                              subexpression_tag(node, "v1"),
                              is_reuse_eligible(node)) for node in order}
            seen.append([got[id(node)] for node in nodes])
        except BaseException as error:  # surfaced by the assert below
            errors.append(error)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sign, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [expected] * 8


def test_a_node_holds_its_dict_before_any_thread_signs_it():
    # Signing keeps its cache in ``vars(node)``.  Were that dict built on
    # the first ``vars`` call, two threads signing one shared node could
    # build it together over one attribute store (CPython 3.11), freed
    # twice later: the plan's fields must sit in a dict from construction.
    for node in (Scan("S", ("a",), "g"), Filter(Scan("S", ("a",)), A),
                 dataclasses.replace(Scan("S", ("a",)), stream_guid="h")):
        assert [type(r) for r in gc.get_referents(node)] == [dict, type]


# --------------------------------------------------------------------- #
# identity-preserving rewrites


@given(plan=plans)
@SETTINGS
def test_rewriting_a_rewritten_plan_returns_the_same_object(plan):
    once = normalize(apply_rewrites(plan))
    assert fold_constants(once) is once
    assert push_filters(once) is once
    assert apply_rewrites(once) is once
    assert normalize(once) is once
    assert normalize(apply_rewrites(once)) is once
