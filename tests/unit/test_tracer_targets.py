"""The frozen benchmark tracer's patch targets still resolve.

``benchmarks/e2e/trace.py`` (frozen; loaded here by path, read-only)
wraps callables by name: ``owner.__dict__[attr]``.  A name that moved
raises ``KeyError`` only when the benchmark runs -- or, for a method
that became inherited or a non-function, silently measures nothing.
This is the tier-1 guard for both.
"""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

from repro.backends import InMemoryBackend, SqliteBackend

TRACE_PY = (Path(__file__).resolve().parents[2]
            / "benchmarks" / "e2e" / "trace.py")


def load_trace():
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    spec.loader.exec_module(module)
    return module


def all_targets():
    trace = load_trace()
    targets = list(trace.SPAWN_TARGETS)
    for backend in (InMemoryBackend, SqliteBackend):
        targets += trace.layer_targets(backend)
    return sorted({(t.owner, t.attr): t for t in targets}.values(),
                  key=lambda t: (t.owner, t.attr))


@pytest.mark.parametrize("target", all_targets(),
                         ids=lambda t: f"{t.owner}.{t.attr}")
def test_target_resolves_to_a_plain_function(target):
    owner = target.resolve()
    assert target.attr in owner.__dict__, (
        f"{target.owner} no longer defines {target.attr!r} itself")
    assert isinstance(owner.__dict__[target.attr], types.FunctionType)
