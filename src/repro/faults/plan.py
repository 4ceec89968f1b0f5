"""Fault plans: declarative, serializable descriptions of what to break.

A :class:`FaultPlan` is a seeded list of :class:`FaultSpec` entries,
each naming an injection point (:mod:`repro.faults.points`), a failure
kind, and how often to fire -- by probability (one deterministic RNG
draw per arrival at the point), by count (``max_fires`` bounds total
firings; ``after`` skips the first N arrivals), or both.  Plans travel
three ways:

* programmatically: ``Session(faults=FaultPlan(specs=[...], seed=3))``;
* via the environment: ``REPRO_FAULTS`` holds either the JSON dump or
  the compact DSL (see :meth:`FaultPlan.parse`);
* via the CLI: ``repro chaos`` generates seeded campaign plans.

The DSL is ``point:kind[:probability[:max_fires[:delay]]]``, semicolon-
separated, with an optional leading ``seed=N;``::

    seed=3;backend.execute:transient:0.2:2;insights.rpc:drop:0.5

Validation happens at construction: unknown points, kinds a point does
not support, and out-of-range probabilities raise
:class:`~repro.common.errors.ConfigError` immediately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.faults.points import REGISTRY, valid_kinds


@dataclass
class FaultSpec:
    """One injection rule: where, what, and how often."""

    point: str
    kind: str
    #: Chance each arrival at the point fires this spec.  Specs at the
    #: same point share a single cumulative draw: with drop=0.3 and
    #: error=0.2, one draw in [0, 0.3) drops and [0.3, 0.5) errors.
    probability: float = 1.0
    #: Extra simulated latency (``delay`` kind only).
    delay_seconds: float = 0.0
    #: Total firings allowed; ``None`` = unbounded.
    max_fires: Optional[int] = None
    #: Arrivals at the point to let through before this spec is live.
    after: int = 0

    def __post_init__(self) -> None:
        if self.point not in REGISTRY:
            raise ConfigError(
                f"unknown fault point {self.point!r}; known points: "
                f"{', '.join(sorted(REGISTRY))}")
        kinds = valid_kinds(self.point)
        if self.kind not in kinds:
            raise ConfigError(
                f"fault kind {self.kind!r} is not valid at "
                f"{self.point!r}; supported: {', '.join(kinds)}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.delay_seconds < 0:
            raise ConfigError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}")
        if self.max_fires is not None and self.max_fires < 0:
            raise ConfigError(
                f"max_fires must be >= 0, got {self.max_fires}")
        if self.after < 0:
            raise ConfigError(f"after must be >= 0, got {self.after}")

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"point": self.point, "kind": self.kind,
                                  "probability": self.probability}
        if self.delay_seconds:
            out["delay_seconds"] = self.delay_seconds
        if self.max_fires is not None:
            out["max_fires"] = self.max_fires
        if self.after:
            out["after"] = self.after
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        return cls(
            point=str(payload["point"]),
            kind=str(payload["kind"]),
            probability=float(payload.get("probability", 1.0)),
            delay_seconds=float(payload.get("delay_seconds", 0.0)),
            max_fires=(None if payload.get("max_fires") is None
                       else int(payload["max_fires"])),
            after=int(payload.get("after", 0)),
        )


@dataclass
class FaultPlan:
    """A seeded set of injection rules; the unit chaos campaigns run."""

    specs: List[FaultSpec] = field(default_factory=list)
    seed: int = 0
    name: str = ""

    @property
    def active(self) -> bool:
        return any(spec.probability > 0 and spec.max_fires != 0
                   for spec in self.specs)

    def by_point(self) -> Dict[str, List[FaultSpec]]:
        out: Dict[str, List[FaultSpec]] = {}
        for spec in self.specs:
            out.setdefault(spec.point, []).append(spec)
        return out

    # ------------------------------------------------------------------ #
    # serialization

    def to_dict(self) -> Dict[str, object]:
        return {"seed": self.seed, "name": self.name,
                "specs": [spec.to_dict() for spec in self.specs]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        return cls(
            specs=[FaultSpec.from_dict(s)
                   for s in payload.get("specs", ())],
            seed=int(payload.get("seed", 0)),
            name=str(payload.get("name", "")),
        )

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON or from the compact DSL."""
        text = text.strip()
        if not text:
            return cls()
        if text.startswith("{"):
            try:
                return cls.from_dict(json.loads(text))
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValueError) as error:
                raise ConfigError(
                    f"malformed fault-plan JSON: {error}") from None
        seed = 0
        specs: List[FaultSpec] = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if chunk.startswith("seed="):
                try:
                    seed = int(chunk[5:])
                except ValueError:
                    raise ConfigError(
                        f"malformed fault-plan seed {chunk!r}") from None
                continue
            parts = chunk.split(":")
            if len(parts) < 2:
                raise ConfigError(
                    f"malformed fault spec {chunk!r}; expected "
                    "point:kind[:probability[:max_fires[:delay]]]")
            try:
                specs.append(FaultSpec(
                    point=parts[0], kind=parts[1],
                    probability=(float(parts[2])
                                 if len(parts) > 2 else 1.0),
                    max_fires=(int(parts[3])
                               if len(parts) > 3 else None),
                    delay_seconds=(float(parts[4])
                                   if len(parts) > 4 else 0.0),
                ))
            except ConfigError:
                raise
            except ValueError as error:
                raise ConfigError(
                    f"malformed fault spec {chunk!r}: {error}") from None
        return cls(specs=specs, seed=seed)

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None
                 ) -> Optional["FaultPlan"]:
        """Build a plan from ``REPRO_FAULTS``; ``None`` when unset."""
        import os
        env = os.environ if environ is None else environ
        text = env.get("REPRO_FAULTS", "")
        if not text.strip():
            return None
        plan = cls.parse(text)
        seed = env.get("REPRO_FAULTS_SEED", "")
        if seed.strip():
            try:
                plan.seed = int(seed)
            except ValueError:
                raise ConfigError(
                    f"REPRO_FAULTS_SEED must be an integer, "
                    f"got {seed!r}") from None
        return plan

