"""Query annotations files for incident debugging.

Figure 5: "We also generate a query annotations file with the selected
signatures that could be used for quickly debugging any job.  For
instance, in case of a customer incident, we can reproduce the compute
reuse behavior by compiling a job with the annotations file."

The file format is plain JSON so that an on-call engineer can read and
hand-edit it.  :func:`compile_with_annotations` hands the file's contents
to :meth:`ScopeEngine.compile` in place of the insights fetch,
reproducing the incident compilation deterministically.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.common.errors import InsightsError
from repro.insights.partition import to_wire
from repro.optimizer.context import Annotation

if TYPE_CHECKING:  # the engine imports this package; avoid a cycle
    from repro.engine.engine import CompiledJob, ScopeEngine

FORMAT_VERSION = 1


def dump_annotations(annotations: Iterable[Annotation],
                     runtime_version: str = "") -> str:
    """Serialize selected signatures to the annotations-file format."""
    payload = {
        "format_version": FORMAT_VERSION,
        "runtime_version": runtime_version,
        "annotations": to_wire(list(annotations)),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def load_annotations(text: str) -> List[Annotation]:
    """Parse an annotations file; raises :class:`InsightsError` on damage."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InsightsError(f"annotations file is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise InsightsError("annotations file must be a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise InsightsError(
            f"unsupported annotations format version {version!r}")
    annotations = []
    for entry in payload.get("annotations", []):
        try:
            annotations.append(Annotation(
                recurring_signature=entry["recurring_signature"],
                tag=entry["tag"],
                expected_rows=int(entry.get("expected_rows", 0)),
                expected_bytes=int(entry.get("expected_bytes", 0)),
                virtual_cluster=entry.get("virtual_cluster", ""),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise InsightsError(f"malformed annotation entry: {exc}")
    return annotations


def export_current_annotations(engine: "ScopeEngine") -> str:
    """Snapshot the insights service's current generation to a file body."""
    return dump_annotations(engine.insights.annotations(),
                            runtime_version=engine.runtime_version)


def compile_with_annotations(engine: "ScopeEngine", sql: str,
                             annotations_text: str,
                             params: Optional[Dict[str, object]] = None,
                             virtual_cluster: str = "default",
                             now: float = 0.0,
                             job_id: str = "debug-job") -> "CompiledJob":
    """Reproduce a job's reuse behaviour from an annotations file.

    Compiles against the engine's catalog and view store, but with the
    annotation set taken from the file instead of the insights service --
    the paper's incident-debugging path.
    """
    return engine.compile(
        sql, params=params, virtual_cluster=virtual_cluster, now=now,
        job_id=job_id,
        annotations={a.recurring_signature: a
                     for a in load_annotations(annotations_text)})
