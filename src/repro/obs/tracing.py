"""Tracing pillar: hierarchical spans over the reuse feedback loop.

Every compiled job gets a trace (trace id = job id) whose spans follow a
fixed taxonomy mirroring Figure 5's query-processing path:

    job.compile
      insights.fetch        annotation round trip(s) to the serving layer
      view.match            top-down core search
      view.buildout         bottom-up follow-up optimization (spools)
    cluster.schedule        admission -> last stage completion
      spool.seal            early-seal moment of each produced view

Two non-job trace families ride alongside: ``selection.epoch`` (one trace
per feedback-loop run, trace id ``epoch-N``) and the cluster spans above.

Timestamps are *simulated* seconds, so span durations are the durations
the simulation charged (e.g. the ~15 ms insights round trip of
Section 5.2), and traces replay identically across runs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Span:
    """One timed operation within a trace."""

    span_id: int
    name: str
    trace_id: str
    start: float
    end: Optional[float] = None
    parent_id: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def annotate(self, key: str, value: object) -> "Span":
        self.attrs[key] = value
        return self

    def finish(self, at: float) -> "Span":
        self.end = at
        return self

    def to_json(self) -> str:
        payload = {
            "span_id": self.span_id,
            "name": self.name,
            "trace_id": self.trace_id,
            "start": self.start,
            "end": self.end,
        }
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        if self.attrs:
            payload["attrs"] = self.attrs
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "Span":
        payload = json.loads(line)
        return Span(
            span_id=int(payload["span_id"]),
            name=payload["name"],
            trace_id=payload["trace_id"],
            start=float(payload["start"]),
            end=payload.get("end"),
            parent_id=payload.get("parent_id"),
            attrs=payload.get("attrs", {}),
        )


class Tracer:
    """Creates, stores and exports spans."""

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._ids = itertools.count(1)

    def __len__(self) -> int:
        return len(self._spans)

    # ------------------------------------------------------------------ #
    # creation

    def start_span(self, name: str, trace_id: str, at: float,
                   parent: Optional[Span] = None,
                   **attrs: object) -> Span:
        span = Span(
            span_id=next(self._ids),
            name=name,
            trace_id=trace_id,
            start=at,
            parent_id=parent.span_id if parent is not None else None,
            attrs=dict(attrs),
        )
        self._spans.append(span)
        return span

    # ------------------------------------------------------------------ #
    # export

    def dump_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self._spans:
                handle.write(span.to_json() + "\n")
        return len(self._spans)

    @staticmethod
    def load_jsonl(path: str) -> List[Span]:
        spans: List[Span] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    spans.append(Span.from_json(line))
        return spans


def render_flamegraph(spans: List[Span], trace_id: str,
                      width: int = 40) -> str:
    """Text flamegraph of one trace: nested spans with duration bars.

    Children are indented under their parents and every span gets a bar
    proportional to its share of the trace's wall-clock extent.
    """
    if not spans:
        return f"no spans recorded for trace {trace_id!r}"
    start = min(s.start for s in spans)
    end = max(s.end if s.end is not None else s.start for s in spans)
    extent = max(end - start, 1e-12)
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))

    lines = [f"trace {trace_id} — {len(spans)} spans, "
             f"{extent:.3f}s simulated"]

    def visit(span: Span, depth: int) -> None:
        offset = int((span.start - start) / extent * width)
        length = max(1, int(span.duration / extent * width))
        length = min(length, width - offset) or 1
        bar = " " * offset + "█" * length
        attrs = " ".join(f"{k}={span.attrs[k]}"
                         for k in sorted(span.attrs))
        label = "  " * depth + span.name
        lines.append(f"{label:<28} {span.duration:>9.4f}s "
                     f"|{bar:<{width}}| {attrs}")
        for child in children.get(span.span_id, ()):
            visit(child, depth + 1)

    # Roots: spans whose parent is absent from this trace.
    present = {s.span_id for s in spans}
    for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
        if span.parent_id is None or span.parent_id not in present:
            visit(span, 0)
    return "\n".join(lines)
