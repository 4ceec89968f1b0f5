"""Plan templates: a recurring job is compiled once and bound per instance.

Recurring instances differ only in "parameter values and input GUIDs"
(Section 2.3) -- what a recurring signature discards by definition.  So
the engine compiles a template's first instance from scratch and keeps
its normalized plan as a :class:`PlanTemplate`: the plan flattened into
post-order *positions*, each with what every later instance reads instead
of recomputing -- its children's positions, which of its own fields hold
a parameter literal, its recurring signature, tag and UDO depth, and --
for a node with no parameter literal -- the ``hashlib`` state of its
strict digest after its own parts.

Binding an instance is one bottom-up pass over the positions:

* a ``Scan`` takes the catalog's current GUID (and is re-hashed);
* a node whose parameter literal changed is rebuilt and re-hashed in
  full (its own parts changed; so is a node holding a parameter literal
  whose value stayed but whose child was rebuilt);
* any other node with a rebuilt child is rebuilt with ``with_children``
  and its strict digest finished from a copy of its saved state, fed only
  the children's digests;

and every rebuilt node inherits its position's recurring signature, tag
and UDO depth.  Untouched nodes are the template's own objects, so an
identical re-run binds to the template itself and hashes nothing.

**Why the bound plan is the one a from-scratch compile gives.**  Neither
``PlanBuilder.build`` nor ``apply_rewrites`` reads a GUID or a
parameter-bound value, so binding commutes with both; ``normalize``
does read values, but only through a node's *own* expressions'
``canonical()`` -- ordering and de-duplicating a filter's conjuncts and a
join's key pairs -- while merging filter chains and stripping identity
projections are structural.  A node whose literals did not change is
therefore still its own normal form, and only a node whose literal
changed needs the check (validity rule (ii)): if it is not its own normal
form, :meth:`PlanTemplate.bind` returns ``None`` and the engine compiles
from scratch.  So does a ``Scan`` whose dataset's schema changed (rule
(iii)).  Every doubt resolves to a miss: a wrong hit is a wrong answer, a
miss only costs speed.

Templates are immutable and shared by every later instance: a bind
never writes to one, it makes a new template -- a new node list -- over
the same shared slots.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.plan.expressions import Expr, Literal, rewrite
from repro.plan.logical import LogicalPlan, Scan
from repro.plan.normalize import normalize_node
from repro.signatures import signature


class PlanTemplate(NamedTuple):
    """One plan-cache entry: a normalized plan (no Spool, no ViewScan) in
    post-order positions, the root last.  ``nodes`` are one instance's;
    ``salt``, ``slots`` and ``tags`` are shared by every instance bound
    from the same compile."""

    nodes: List[LogicalPlan]
    salt: str
    #: Per position: ``(kind, child positions, names of the fields that
    #: hold a parameter literal, recurring signature, tag, UDO depth,
    #: strict digest after the node's own parts)``; the last is ``None``
    #: for a Scan and for a node with a parameter literal.
    slots: Tuple[tuple, ...]
    #: The sorted tags of the reuse-eligible positions.
    tags: Tuple[str, ...]

    @classmethod
    def of(cls, plan: LogicalPlan, salt: str) -> "PlanTemplate":
        """The template of ``plan``, signed under ``salt``."""
        nodes, slots = [], []

        def visit(node: LogicalPlan) -> int:
            kids = tuple(visit(child) for child in node.children())
            kind = type(node)
            _, recurring, tag = signature._signed(node, salt)
            params = tuple(field.name for field in dataclasses.fields(node)
                           if _holds_parameter(getattr(node, field.name)))
            prefix = None if kind is Scan or params \
                else signature._open(node, kind, False, salt)
            slots.append((kind, kids, params, recurring, tag,
                          signature._udo_depth(node), prefix))
            nodes.append(node)
            return len(nodes) - 1

        visit(plan)
        tags = tuple(sorted({slot[4] for slot in slots if slot[5]
                             <= signature.MAX_DEPENDENCY_DEPTH}))
        return cls(nodes, salt, tuple(slots), tags)

    @property
    def plan(self) -> LogicalPlan:
        return self.nodes[-1]

    def bind(self, catalog, params: Dict[str, object],
             salt: str) -> Optional["PlanTemplate"]:
        """The template of this instance: the plan with today's GUIDs from
        ``catalog`` and ``params``'s values, signed under ``salt``; or
        ``None`` when a from-scratch compile might give another plan."""
        if salt != self.salt:            # a runtime upgrade: re-sign once
            return PlanTemplate.of(self.plan, salt).bind(
                catalog, params, salt)

        def bound(value: object) -> object:
            """A field with each bound literal at its new value; the same
            object where none changed."""
            if isinstance(value, tuple):
                items = tuple(map(bound, value))
                return value if all(map(operator.is_, items, value)) \
                    else items
            return value if value is None else rewrite(value, bind_literal)

        def bind_literal(node: Expr) -> Optional[Expr]:
            if isinstance(node, Literal) and node.param_name in params:
                value = params[node.param_name]
                # ``1 == True == 1.0`` yet each signs differently.
                if type(value) is not type(node.value) or value != node.value:
                    return Literal(value, node.param_name)
            return None

        nodes = list(self.nodes)
        rebuilt = set()                   # positions holding a new node
        for position, (kind, kids, fields, recurring, tag, depth,
                       prefix) in enumerate(self.slots):
            node = nodes[position]
            if kind is Scan:
                entry = catalog.entry(node.dataset)
                if entry.schema.column_names != node.columns:
                    return None           # rule (iii): the schema changed
                guid = entry.current.guid
                if guid == node.stream_guid:
                    continue
                fresh: LogicalPlan = Scan(node.dataset, node.columns, guid)
                strict = signature._node_digest(fresh, Scan, False, salt, [])
            else:
                changes = {}
                for name in fields:
                    old = getattr(node, name)
                    if (new := bound(old)) is not old:
                        changes[name] = new
                moved = not rebuilt.isdisjoint(kids)
                if not (moved or changes):
                    continue
                children = [nodes[kid] for kid in kids]
                fresh = node.with_children(children) if moved else node
                if changes:
                    fresh = dataclasses.replace(fresh, **changes)
                    if normalize_node(fresh) is not fresh:
                        return None       # rule (ii): not its normal form
                below = [vars(child)[signature._SIGNED][salt][0]
                         for child in children]
                strict = signature._close(prefix.copy(), kind, below) \
                    if prefix is not None else signature._node_digest(
                        fresh, kind, False, salt, below)
            attrs = vars(fresh)
            attrs[signature._SIGNED] = {salt: (strict, recurring, tag)}
            attrs[signature._UDO_DEPTH] = depth
            nodes[position] = fresh
            rebuilt.add(position)
        return self._replace(nodes=nodes) if rebuilt else self


def _holds_parameter(value: object) -> bool:
    """True if a plan node's field holds a parameter-bound literal."""
    return any(isinstance(e, Literal) and e.param_name is not None
               for expr in (value if isinstance(value, tuple) else (value,))
               if isinstance(expr, Expr) for e in expr.walk())
