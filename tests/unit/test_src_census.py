"""The keep rule of DESIGN §3, as a standing check on ``src/``.

A definition stays if some traffic reaches it; an option nobody sets is a
constant.  The full census needs a profiler over the benchmark, the CLI,
the figure benchmarks and the examples (DESIGN says how to re-run it);
these are its static shadows, cheap enough for tier-1:

* every module has an importer that is not its own package ``__init__``;
* the docs name exactly the ``REPRO_*`` variables that ``src/`` reads;
* every field of the audited config dataclasses is set by somebody;
* every ``BackendCapabilities`` field is read by somebody in ``src/``;
* what a catalog mutation *means* is written once: the lifetime-counter
  and ``reuse_count`` arithmetic and every write to a view's ``sealed`` /
  ``purged`` flag sit in ``ViewStore.apply`` and nowhere else in ``src/``;
* the lock discipline the runtime sanitizer cannot see (DESIGN §10):
  every lock is tracked, a tracked lock is taken only by ``with``, and
  nothing sleeps, joins, waits unboundedly or does file I/O inside a
  ``with <tracked lock>`` body.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Where a reason to keep a module may live (tests alone are not one).
TRAFFIC = [SRC, ROOT / "benchmarks", ROOT / "examples"]


@lru_cache(maxsize=None)
def tree_of(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def python_files(*roots: Path):
    return sorted(p for root in roots for p in root.rglob("*.py"))


def module_of(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_of(p): p for p in python_files(SRC)}


def from_imports(path: Path):
    """``(module, name)`` for every ``from repro... import name``."""
    for node in ast.walk(tree_of(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name


def imported_modules(path: Path):
    """The ``repro`` modules ``path`` imports; a name taken from a package
    counts as its defining module (one hop through the ``__init__``)."""
    for node in ast.walk(tree_of(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    yield alias.name
    for module, name in from_imports(path):
        if f"{module}.{name}" in MODULES:
            yield f"{module}.{name}"
            continue
        yield module
        init = MODULES.get(module)
        if init is not None and init.name == "__init__.py":
            for source, exported in from_imports(init):
                if exported == name:
                    yield source


def importers():
    found = {}
    for path in python_files(*TRAFFIC):
        for module in imported_modules(path):
            found.setdefault(module, set()).add(path)
    return found


def test_every_module_has_an_importer_besides_its_own_package():
    found = importers()
    orphans = []
    for module, path in MODULES.items():
        if path.name in ("__init__.py", "__main__.py"):
            continue
        own_init = path.parent / "__init__.py"
        if not found.get(module, set()) - {own_init, path}:
            orphans.append(module)
    assert orphans == []


def test_docs_and_code_agree_on_the_environment_variables():
    """A documented variable nothing reads does nothing; a read variable
    the docs do not name is an input nobody was told about."""
    documented = set()
    for name in ("README.md", "DESIGN.md"):
        documented |= set(re.findall(
            r"REPRO_[A-Z_]+", (ROOT / name).read_text(encoding="utf-8")))
    read = {node.value for path in python_files(SRC)
            for node in ast.walk(tree_of(path))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"REPRO_[A-Z_]+", node.value)}
    assert sorted(documented) == sorted(read)


#: The audited config surface.  ``CostModel``'s coefficients are a value
#: object (one calibrated set), not knobs, and are exempt.
AUDITED = {
    "SessionConfig": "repro.config",
    "EngineConfig": "repro.engine.engine",
    "SchedulerConfig": "repro.scheduler.scheduler",
    "InsightsClientConfig": "repro.insights.client",
    "LifecycleConfig": "repro.lifecycle.manager",
    "ShardConfig": "repro.shard.supervisor",
    "SimulationConfig": "repro.simulation",
    "SelectionPolicy": "repro.selection.policies",
}


def fields_of(class_name: str, module: str):
    for node in ast.walk(tree_of(MODULES[module])):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return [stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)]
    raise AssertionError(f"{module} has no class {class_name}")


#: Every class ``src/`` defines: a keyword passed to one of them sets a
#: field of *that* class, not of an audited config that shares its name.
SRC_CLASSES = {node.name for path in python_files(SRC)
               for node in ast.walk(tree_of(path))
               if isinstance(node, ast.ClassDef)}


def called_name(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", "")


def names_set_outside(module: str, class_name: str):
    """Every field name set anywhere but in ``module`` (tests count: a
    knob a test needs has a caller): a keyword argument to anything but
    another ``src/`` class's constructor, and an attribute stored on an
    object whose expression names a config (``config.workers = 4``, not
    ``self.workers = workers``)."""
    names = set()
    for path in python_files(*TRAFFIC, ROOT / "tests"):
        if path == MODULES[module]:
            continue
        for node in ast.walk(tree_of(path)):
            if isinstance(node, ast.Call):
                callee = called_name(node)
                if callee == class_name or callee not in SRC_CLASSES:
                    names.update(kw.arg for kw in node.keywords if kw.arg)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store) \
                    and "config" in ast.unparse(node.value).lower():
                names.add(node.attr)
    return names


@pytest.mark.parametrize("class_name", sorted(AUDITED))
def test_every_config_field_has_a_setter(class_name):
    module = AUDITED[class_name]
    unset = (set(fields_of(class_name, module))
             - names_set_outside(module, class_name))
    assert sorted(unset) == [], (
        f"{class_name} fields nobody sets: make them module constants")


def test_every_backend_capability_has_a_reader():
    """A capability bit nothing gates on is a declaration, not a seam:
    what a backend cannot do it refuses where it is asked to."""
    read = {node.attr for path in python_files(SRC)
            for node in ast.walk(tree_of(path))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    fields = fields_of("BackendCapabilities", "repro.backends.base")
    assert sorted(set(fields) - read) == []


#: Augmented assignment to any of these is catalog arithmetic ...
CATALOG_ARITHMETIC = {"reuse_count", "total_created", "total_reused",
                      "total_expired", "total_purged", "total_gc_evicted"}
#: ... and so is any assignment at all to these.
VIEW_FLAGS = {"sealed", "purged"}


def catalog_writes(path: Path):
    """``(enclosing definition, attribute)`` for every statement in
    ``path`` that moves durable catalog state."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            owner = f"{owner}.{node.name}".lstrip(".")
        targets, names = [], set()
        if isinstance(node, ast.AugAssign):
            targets, names = [node.target], CATALOG_ARITHMETIC | VIEW_FLAGS
        elif isinstance(node, ast.Assign):
            targets, names = node.targets, VIEW_FLAGS
        elif isinstance(node, ast.AnnAssign):
            targets, names = [node.target], VIEW_FLAGS
        for target in targets:
            found.extend((owner, leaf.attr) for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Attribute)
                         and leaf.attr in names)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree_of(path), "")
    return found


def test_catalog_arithmetic_is_written_once_in_the_view_store():
    """Live mutators and WAL replay share ``ViewStore.apply``; a second
    copy of its arithmetic (the journal used to keep one, "in step" by
    hand) is how a recovered catalog drifts from the live one."""
    views = MODULES["repro.storage.views"]
    elsewhere = {str(path.relative_to(SRC)): catalog_writes(path)
                 for path in python_files(SRC)
                 if path != views and catalog_writes(path)}
    assert elsewhere == {}
    assert sorted(catalog_writes(views)) == sorted(
        ("ViewStore.apply", name) for name in CATALOG_ARITHMETIC | VIEW_FLAGS)


# ---------------------------------------------------------------------- #
# Lock discipline.  The sanitizer in ``common/sync.py`` checks rank order
# and wait-for cycles on every acquire that tier-1 and ``-m stress`` take
# under ``REPRO_DEBUG_CHECKS=1``; these rules cover what it cannot see: a
# lock it does not know about, a hold that outlives its block, and a
# block that sleeps while others wait.

TRACKED = {"TrackedLock", "TrackedRLock"}
RAW_LOCKS = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
#: The scheduler's admission gate counts free slots from ``submit`` to
#: ``drain``; nothing is acquired while a thread waits on it, so it has
#: no place in the rank order.
UNTRACKED_EXEMPT = {("repro/scheduler/scheduler.py", "BoundedSemaphore")}
#: The journal's WAL append and snapshot write under its leaf lock:
#: records must reach the file in applied order.
IO_UNDER_LOCK_EXEMPT = {
    ("repro/lifecycle/journal.py", "CatalogJournal.append_record"),
    ("repro/lifecycle/journal.py", "CatalogJournal.snapshot"),
}
SYNC = SRC / "repro" / "common" / "sync.py"


def lock_users():
    """``{path under src/: tree}`` for every module but the wrappers."""
    return {str(path.relative_to(SRC)): tree_of(path)
            for path in python_files(SRC) if path != SYNC}


def leaf(node) -> str:
    """The last name of ``a.b.c`` / ``c``; '' for anything else."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def calls(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def raw_locks(tree):
    return sorted({leaf(call.func) for call in calls(tree)} & RAW_LOCKS)


def tracked_names(*trees):
    """Every attribute or variable name a tracked lock is assigned to."""
    return {leaf(target) for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and leaf(node.value.func) in TRACKED
            for target in node.targets}


def bare_lock_calls(tree, locks):
    return sorted((call.lineno, f"{leaf(call.func.value)}.{call.func.attr}")
                  for call in calls(tree)
                  if isinstance(call.func, ast.Attribute)
                  and call.func.attr in ("acquire", "release")
                  and leaf(call.func.value) in locks)


def blocking(call) -> str:
    """Why ``call`` may block indefinitely or on the disk ('' if not)."""
    name = leaf(call.func)
    if name == "sleep":
        return "sleep"
    if name in ("join", "wait", "result", "get") \
            and not call.args and not call.keywords:
        return f"unbounded {name}"  # str.join and dict.get take arguments
    if ast.unparse(call.func) in ("open", "os.fsync", "os.replace"):
        return "file I/O"
    return ""


def blocking_under_lock(tree, locks):
    """``(enclosing definition, what)`` for each blocking call lexically
    inside a ``with`` over one of ``locks`` (nested defs excluded: a
    closure built under a lock need not run under it)."""
    found = set()

    def visit(node, owner, held):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            owner, held = f"{owner}.{node.name}".lstrip("."), False
        elif isinstance(node, ast.Lambda):
            held = False
        elif isinstance(node, ast.With):
            held = held or any(leaf(item.context_expr) in locks
                               for item in node.items)
        elif held and isinstance(node, ast.Call) and blocking(node):
            found.add((owner, blocking(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, held)

    visit(tree, "", False)
    return sorted(found)


SEEDED = ast.parse("""
import threading, time
from repro.common.sync import TrackedLock

class Janitor:
    def __init__(self):
        self._mutex = TrackedLock("janitor", 1)
        self._gate = threading.Lock()

    def size(self):
        self._mutex.acquire()
        return len(self.items)

    def stop(self, thread):
        with self._mutex:
            thread.join()
            time.sleep(0.1)
            thread.join(timeout=1.0)
            return ", ".join(self.items.get(key, "") for key in self.keys)
""")


def test_every_lock_in_src_is_tracked():
    """A raw lock is invisible to the sanitizer's rank and cycle checks."""
    assert raw_locks(SEEDED) == ["Lock"]
    found = {(path, name) for path, tree in lock_users().items()
             for name in raw_locks(tree)}
    assert found == UNTRACKED_EXEMPT


def test_tracked_locks_are_taken_only_by_with():
    """A bare ``acquire()`` can return with the lock held; the sanitizer
    only sees it when a later acquire on the same path trips over it."""
    assert bare_lock_calls(SEEDED, tracked_names(SEEDED)) == [
        (11, "_mutex.acquire")]
    trees = lock_users()
    locks = tracked_names(*trees.values())
    assert {"_mutex", "_lock", "_dispatch", "_pool_mutex"} <= locks
    assert {path: bare_lock_calls(tree, locks)
            for path, tree in trees.items()
            if bare_lock_calls(tree, locks)} == {}


def test_nothing_blocks_under_a_tracked_lock():
    """The sanitizer watches locks, not joins or sleeps: a janitor joined
    under the lock its sweep takes hangs without a violation."""
    assert blocking_under_lock(SEEDED, tracked_names(SEEDED)) == [
        ("Janitor.stop", "sleep"), ("Janitor.stop", "unbounded join")]
    trees = lock_users()
    locks = tracked_names(*trees.values())
    found = {(path, owner, what) for path, tree in trees.items()
             for owner, what in blocking_under_lock(tree, locks)}
    assert {(path, owner) for path, owner, _ in found} == IO_UNDER_LOCK_EXEMPT
    assert {what for _, _, what in found} == {"file I/O"}
