"""User-defined operator (UDO) registry for the executor.

SCOPE jobs "often include custom user code" (Section 1).  A UDO here is a
Python callable from a list of rows to a list of rows.  Unknown UDOs default
to pass-through, which keeps workload generation simple while still flowing
the UDO's *identity* through signatures (the part CloudViews cares about).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.plan.expressions import Row

UdoFunc = Callable[[List[Row]], List[Row]]


class UdoRegistry:
    """Named row-transform functions available to Process operators."""

    def __init__(self) -> None:
        self._udos: Dict[str, UdoFunc] = {}

    def register(self, name: str, func: UdoFunc) -> None:
        self._udos[name] = func

    def get(self, name: str) -> UdoFunc:
        return self._udos.get(name, _passthrough)


def _passthrough(rows: List[Row]) -> List[Row]:
    return rows


def default_registry() -> UdoRegistry:
    """Registry with the representative UDO used by tests/examples."""
    registry = UdoRegistry()

    def scrub(rows: List[Row]) -> List[Row]:
        """Deterministic cleanup: trims string values."""
        return [{k: (v.strip() if isinstance(v, str) else v)
                 for k, v in row.items()} for row in rows]

    registry.register("Scrub", scrub)
    return registry
