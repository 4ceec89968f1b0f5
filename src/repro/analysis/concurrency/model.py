"""Data model of the statically-extracted concurrency facts.

Everything the ``concurrency-*`` rules consume is collected here, fully
decoupled from the AST walk that produces it: lock declarations keyed by
``(class, attribute)``, per-method acquisition/call/write facts, and the
whole-tree :class:`SourceIndex` with the derived lock-acquisition-order
graph (direct ``with``-nesting edges plus call-mediated edges through
the per-method transitive acquire sets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

#: A lock's identity: (class name, attribute name), e.g.
#: ``("ViewStore", "_mutex")``.
LockKey = Tuple[str, str]

#: Lock constructor names recognized as lock declarations.  Deliberately
#: excludes Semaphore/BoundedSemaphore/Event: those are counting or
#: signalling primitives whose acquire/release legitimately split across
#: methods (e.g. the scheduler's admission slots).
LOCK_TYPES = ("Lock", "RLock", "Condition", "TrackedLock", "TrackedRLock")

#: Lock types wrapped by :mod:`repro.common.sync` (carry name + rank).
TRACKED_TYPES = ("TrackedLock", "TrackedRLock")


@dataclass(frozen=True)
class LockDecl:
    """One ``self.X = threading.Lock()``-style declaration."""

    key: LockKey
    lock_type: str          # one of LOCK_TYPES
    file: str
    line: int
    #: Tracked name literal (``TrackedLock("storage.data", ...)``), if
    #: statically resolvable; empty otherwise.
    tracked_name: str = ""
    #: Hierarchy rank, if statically resolvable (RANK_* constant folding).
    rank: Optional[int] = None

    @property
    def tracked(self) -> bool:
        return self.lock_type in TRACKED_TYPES

    @property
    def display(self) -> str:
        """Human-facing lock label: tracked name, else Class.attr."""
        return self.tracked_name or f"{self.key[0]}.{self.key[1]}"


@dataclass(frozen=True)
class Acquisition:
    """One lock acquisition site inside a method body."""

    key: LockKey
    file: str
    line: int
    #: Locks already held (statically) at this acquisition.
    held: FrozenSet[LockKey] = frozenset()
    #: ``"with"`` or ``"manual"`` (explicit ``.acquire()`` call).
    via: str = "with"


@dataclass(frozen=True)
class BlockingCall:
    """A potentially-blocking call made while at least one lock is held."""

    kind: str               # sleep | join | wait | queue-get | future | io
    call: str               # rendered call expression, e.g. "time.sleep"
    file: str
    line: int
    held: FrozenSet[LockKey] = frozenset()
    #: True when the call carries a timeout argument (bounded blocking).
    has_timeout: bool = False


@dataclass(frozen=True)
class AttrWrite:
    """One ``self.X = ...`` / ``self.X += ...`` site."""

    attr: str
    file: str
    line: int
    method: str
    #: Locks held (statically) at the write.
    held: FrozenSet[LockKey] = frozenset()


@dataclass
class MethodInfo:
    """Per-method concurrency facts."""

    class_name: str
    name: str
    file: str
    line: int
    acquisitions: List[Acquisition] = field(default_factory=list)
    blocking_calls: List[BlockingCall] = field(default_factory=list)
    attr_writes: List[AttrWrite] = field(default_factory=list)
    #: Methods this body calls, as (class name, method name); class name
    #: resolved via self-calls and constructor-based attribute typing.
    calls: List[Tuple[str, str]] = field(default_factory=list)
    #: The same calls with the lock set held at the call site and the
    #: line: ((class, method), held, line).
    calls_held: List[Tuple[Tuple[str, str], FrozenSet[LockKey], int]] = \
        field(default_factory=list)
    #: ``target=self.m`` / ``pool.submit(self.m, ...)`` launch sites:
    #: method names handed to another thread.
    thread_targets: List[str] = field(default_factory=list)
    #: Manual lock-call counts for the unbalanced-acquire rule.
    manual_acquires: Dict[LockKey, int] = field(default_factory=dict)
    manual_releases: Dict[LockKey, int] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.class_name}.{self.name}"


@dataclass
class ClassInfo:
    """Per-class concurrency facts."""

    name: str
    file: str
    line: int
    locks: Dict[str, LockDecl] = field(default_factory=dict)
    methods: Dict[str, MethodInfo] = field(default_factory=dict)
    #: Attribute name -> class name, inferred from ``self.X = Cls(...)``.
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: Wrapper classes defining both ``acquire`` and ``release`` are
    #: exempt from the unbalanced-acquire rule (their split is the API).
    @property
    def is_lock_wrapper(self) -> bool:
        return "acquire" in self.methods and "release" in self.methods


@dataclass(frozen=True)
class AcquisitionEdge:
    """``holder`` was held when ``acquired`` was taken."""

    holder: LockKey
    acquired: LockKey
    file: str
    line: int
    #: The method whose body establishes the edge.
    method: str
    #: "direct" for with-nesting in one body; "call" when the inner lock
    #: is acquired by a (transitively) called method.
    via: str = "direct"


class SourceIndex:
    """Everything extracted from one source tree, plus derived views."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.files: List[str] = []
        self.classes: Dict[str, ClassInfo] = {}
        #: Non-lock ``threading.*`` sites for the untracked-lock rule:
        #: (class, attr, type, file, line).
        self.raw_locks: List[Tuple[str, str, str, str, int]] = []

    # ------------------------------------------------------------------ #
    # lookups

    def lock(self, key: LockKey) -> Optional[LockDecl]:
        cls = self.classes.get(key[0])
        return cls.locks.get(key[1]) if cls else None

    def all_locks(self) -> List[LockDecl]:
        return [decl for cls in self.classes.values()
                for decl in cls.locks.values()]

    def all_methods(self) -> List[MethodInfo]:
        return [m for cls in self.classes.values()
                for m in cls.methods.values()]

    def method(self, class_name: str, name: str) -> Optional[MethodInfo]:
        cls = self.classes.get(class_name)
        return cls.methods.get(name) if cls else None

    def display(self, key: LockKey) -> str:
        decl = self.lock(key)
        return decl.display if decl else f"{key[0]}.{key[1]}"

    # ------------------------------------------------------------------ #
    # derived: transitive acquire sets and the acquisition-order graph

    def transitive_acquires(self) -> Dict[str, Set[LockKey]]:
        """Method qualname -> every lock its call tree may acquire.

        Fixpoint over the (statically resolvable) call graph; cycles in
        the call graph converge because the sets only grow.
        """
        acquires: Dict[str, Set[LockKey]] = {}
        for method in self.all_methods():
            acquires[method.qualname] = {a.key for a in method.acquisitions}
        changed = True
        while changed:
            changed = False
            for method in self.all_methods():
                mine = acquires[method.qualname]
                before = len(mine)
                for cls_name, callee in method.calls:
                    target = self.method(cls_name, callee)
                    if target is not None:
                        mine |= acquires[target.qualname]
                if len(mine) != before:
                    changed = True
        return acquires

    def acquisition_edges(self) -> List[AcquisitionEdge]:
        """Every held->acquired edge, direct and call-mediated."""
        edges: List[AcquisitionEdge] = []
        seen: Set[Tuple[LockKey, LockKey, str]] = set()
        transitive = self.transitive_acquires()

        def add(holder: LockKey, acquired: LockKey, file: str, line: int,
                method: str, via: str) -> None:
            if holder == acquired:
                return  # reentrance is the sanitizer's business
            dedup = (holder, acquired, via)
            if dedup in seen:
                return
            seen.add(dedup)
            edges.append(AcquisitionEdge(holder, acquired, file, line,
                                         method, via))

        for method in self.all_methods():
            for acq in method.acquisitions:
                for held in acq.held:
                    add(held, acq.key, acq.file, acq.line,
                        method.qualname, "direct")
        # Call-mediated: a call made while holding H reaches every lock
        # in the callee's transitive acquire set.
        for method in self.all_methods():
            for (cls_name, callee), held, line in method.calls_held:
                target = self.method(cls_name, callee)
                if target is None or not held:
                    continue
                for inner in transitive[target.qualname]:
                    for holder in held:
                        add(holder, inner, method.file, line,
                            method.qualname, "call")
        return edges

    # ------------------------------------------------------------------ #
    # derived: thread-entry reachability

    def thread_reachable(self) -> Set[str]:
        """Method qualnames reachable from any thread entry point."""
        entries: List[str] = []
        for method in self.all_methods():
            for target in method.thread_targets:
                if self.method(method.class_name, target) is not None:
                    entries.append(f"{method.class_name}.{target}")
        reachable: Set[str] = set()
        frontier = list(entries)
        while frontier:
            qualname = frontier.pop()
            if qualname in reachable:
                continue
            reachable.add(qualname)
            cls_name, _, name = qualname.rpartition(".")
            method = self.method(cls_name, name)
            if method is None:
                continue
            for callee_cls, callee in method.calls:
                if self.method(callee_cls, callee) is not None:
                    frontier.append(f"{callee_cls}.{callee}")
        return reachable


def find_cycles(edges: List[AcquisitionEdge]) -> List[List[LockKey]]:
    """Elementary cycles in the acquisition-order graph (DFS).

    Returns each cycle once as a node list (first node repeated at the
    end is implied, not included); deterministic order for stable output.
    """
    graph: Dict[LockKey, List[AcquisitionEdge]] = {}
    for edge in edges:
        graph.setdefault(edge.holder, []).append(edge)
    cycles: List[List[LockKey]] = []
    seen_cycles: Set[FrozenSet[LockKey]] = set()

    def dfs(node: LockKey, path: List[LockKey], on_path: Set[LockKey]):
        for edge in graph.get(node, ()):  # noqa: B023
            nxt = edge.acquired
            if nxt in on_path:
                start = path.index(nxt)
                cycle = path[start:]
                ident = frozenset(cycle)
                if ident not in seen_cycles:
                    seen_cycles.add(ident)
                    cycles.append(list(cycle))
                continue
            path.append(nxt)
            on_path.add(nxt)
            dfs(nxt, path, on_path)
            on_path.discard(nxt)
            path.pop()

    for start in sorted(graph):
        dfs(start, [start], {start})
    return cycles
