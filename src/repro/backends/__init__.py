"""Execution backends: pluggable storage + execution under the engine.

Public surface::

    from repro.backends import (
        ExecutionBackend, InMemoryBackend, SqliteBackend,
        backend_names, create_backend,
    )

See :mod:`repro.backends.base` for the interface contract.
"""

from repro.backends.base import (
    ExecutionBackend,
    backend_names,
    create_backend,
)
from repro.backends.memory import InMemoryBackend
from repro.backends.sqlite.backend import SqliteBackend

__all__ = [
    "ExecutionBackend",
    "InMemoryBackend",
    "SqliteBackend",
    "backend_names",
    "create_backend",
]
