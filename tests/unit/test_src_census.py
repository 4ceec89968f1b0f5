"""The keep rule of DESIGN §3, as a standing check on ``src/``.

A definition stays if some traffic reaches it; an option nobody sets is a
constant.  The full census needs a profiler over the benchmark, the CLI,
the figure benchmarks and the examples (DESIGN says how to re-run it);
these are its static shadows, cheap enough for tier-1:

* every module has an importer that is not its own package ``__init__``;
* the docs name exactly the ``REPRO_*`` variables that ``src/`` reads;
* every field of the audited config dataclasses is set by somebody
  outside the tests (or is exempt, with its reason);
* what a catalog mutation *means* is written once: the lifetime-counter
  and ``reuse_count`` arithmetic and every write to a view's ``sealed`` /
  ``purged`` flag sit in ``ViewStore.apply`` and nowhere else in ``src/``;
* one caller per ``Session`` (DESIGN §10): only the shard worker imports
  ``threading`` or builds a lock or a thread.
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


def called_name(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", "")


def names_set_outside(module: str, class_name: str):
    """Every field name set in :data:`TRAFFIC` but outside ``module``
    (tests do not count: a knob only a test sets is a constant the test
    patches): a keyword argument to the class's own constructor, and
    an attribute stored on an object whose expression names a config
    (``config.workers = 4``, not ``self.workers = workers``).  A keyword
    to anything else sets a parameter of that callee, whatever its name
    (``seed=7`` to ``generate_workload`` sets no config's ``seed``)."""
    names = set()
    for path in python_files(*TRAFFIC):
        if path == MODULES[module]:
            continue
        for node in ast.walk(tree_of(path)):
            if isinstance(node, ast.Call):
                if called_name(node) == class_name:
                    names.update(kw.arg for kw in node.keywords if kw.arg)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store) \
                    and "config" in ast.unparse(node.value).lower():
                names.add(node.attr)
    return names


#: Fields kept although only tests set them, each with its reason.
EXEMPT = {
    ("SelectionPolicy", "max_views"):
        "a customer constraint of the paper (sections 2.3 and 4); "
        "ROADMAP item 7 decides it",
    ("SelectionPolicy", "per_vc_budgets"):
        "a customer constraint of the paper (sections 2.3 and 4); "
        "ROADMAP item 7 decides it",
    ("EngineConfig", "debug_checks"):
        "resolved from REPRO_DEBUG_CHECKS, which CI sets",
}


@pytest.mark.parametrize("class_name", sorted(AUDITED))
def test_every_config_field_has_a_setter(class_name):
    module = AUDITED[class_name]
    exempt = {field for owner, field in EXEMPT if owner == class_name}
    unset = (set(fields_of(class_name, module)) - exempt
             - names_set_outside(module, class_name))
    assert sorted(unset) == [], (
        f"{class_name} fields only tests set: make them module constants")


def test_every_exemption_names_a_field():
    """An exemption outlives its field only by mistake."""
    for owner, field in EXEMPT:
        assert field in fields_of(owner, AUDITED[owner]), (owner, field)


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
# One caller per ``Session`` (DESIGN §10): the client process takes no
# lock and starts no thread.  The shard worker, a process of its own that
# serves several connections, is the one module that does.

#: Modules whose import brings threads or locks in.
THREAD_MODULES = {"threading", "_thread", "concurrent"}
#: What builds a lock, a thread or a thread-shared object, called through
#: one of those modules or ``multiprocessing`` (a name imported bare from
#: a thread module is caught at its import).
SYNC_BUILDERS = {"Lock", "RLock", "Condition", "Semaphore",
                 "BoundedSemaphore", "Event", "Barrier", "Thread", "Timer",
                 "local", "ThreadPoolExecutor", "allocate_lock",
                 "start_new_thread"}
#: What a module may take from ``threading`` without building anything:
#: the owner check of ``Session`` reads the calling thread's id.
THREAD_READS = {"get_ident"}
CONCURRENT = {"repro/shard/worker.py"}


def concurrency(tree):
    """Each import of a thread module beyond :data:`THREAD_READS`, and
    each call building one of :data:`SYNC_BUILDERS`, in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(f"import {alias.name}" for alias in node.names
                         if alias.name.split(".")[0] in THREAD_MODULES)
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[0] in THREAD_MODULES:
            found.update(f"from {node.module} import {alias.name}"
                         for alias in node.names
                         if alias.name not in THREAD_READS)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in SYNC_BUILDERS \
                and ast.unparse(node.func).split(".")[0] in (
                    THREAD_MODULES | {"multiprocessing"}):
            found.add(f"{ast.unparse(node.func)}()")
    return sorted(found)


SEEDED = ast.parse("""
import threading
from threading import Lock, get_ident

class PlanCache:
    def __init__(self):
        self._owner = get_ident()
        self._mutex = Lock()
        self._warmer = threading.Thread(target=self.warm, daemon=True)
        self._ready = multiprocessing.Event()
""")


def test_only_the_shard_worker_imports_threading_or_builds_a_lock():
    """A lock in the client process guards nothing a second caller may
    reach (a ``Session`` refuses every thread but its owner), and a
    thread there would be a second caller."""
    assert concurrency(SEEDED) == [
        "from threading import Lock", "import threading",
        "multiprocessing.Event()", "threading.Thread()"]
    found = {str(path.relative_to(SRC)) for path in python_files(SRC)
             if concurrency(tree_of(path))}
    assert found == CONCURRENT
