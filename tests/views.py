"""Build and read a view on a backend the one way a job does.

A backend has no view door of its own: executing a ``Spool`` builds a
view (its ``SpoolOutput`` is the row count and byte size the view seals
with) and executing a ``ViewScan`` reads one back as fresh row dicts.
"""

from repro.plan.logical import Spool, ViewScan


def spool(backend, plan, view_path):
    """Materialize ``plan`` under ``view_path``; its ``SpoolOutput``."""
    (spooled,) = backend.execute(Spool(plan, view_path, view_path)).spooled
    return spooled


def scan_view(backend, view_path, columns):
    """The rows of the view under ``view_path``."""
    return backend.execute(ViewScan(view_path, view_path, columns)).rows
