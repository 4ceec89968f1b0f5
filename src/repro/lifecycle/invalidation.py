"""The invalidation bus: typed lifecycle events, delivered in order.

Three things kill views in production (Sections 2.4 and 4): an input
stream's GUID changing under a bulk update, a GDPR forget request (which
also installs a new GUID but additionally requires the *old* artifacts to
disappear), and a runtime upgrade changing every signature at once.  The
bus carries these as typed events from wherever they originate (the
catalog's version observers, operator tooling, the ``repro gc`` CLI) to
the :class:`~repro.lifecycle.manager.LifecycleManager`, which runs the
purge cascade.

Delivery is synchronous and in publication order -- an invalidation must
take effect before the publisher continues, or a job compiled in between
could still match a doomed view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List


@dataclass(frozen=True)
class LifecycleEvent:
    """Base class for bus events."""

    at: float = 0.0

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class StreamGuidChanged(LifecycleEvent):
    """A dataset was regenerated (bulk update): new GUID installed."""

    dataset: str = ""
    old_guid: str = ""
    new_guid: str = ""


@dataclass(frozen=True)
class GdprForget(LifecycleEvent):
    """Right-to-erasure on a dataset: views over *any* of its versions
    must be purged, not merely left to expire."""

    dataset: str = ""
    new_guid: str = ""


@dataclass(frozen=True)
class RuntimeEpochBumped(LifecycleEvent):
    """The runtime (signature salt) changed: every signature goes dark."""

    version: str = ""
    epoch: int = 0


Handler = Callable[[LifecycleEvent], None]


class InvalidationBus:
    """Synchronous pub/sub for lifecycle events: each event's cascade
    completes before :meth:`publish` returns."""

    def __init__(self) -> None:
        self._handlers: List[Handler] = []

    def subscribe(self, handler: Handler) -> None:
        self._handlers.append(handler)

    def publish(self, event: LifecycleEvent) -> None:
        for handler in list(self._handlers):
            handler(event)
