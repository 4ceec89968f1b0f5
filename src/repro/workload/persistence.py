"""Workload-repository persistence (JSON Lines).

The production workload repository lives in telemetry stores and is
consumed by offline analysis jobs (Figure 5's "Workload Repository ...
query plans, subexpression signatures, compile-time statistics, runtime
statistics, metadata").  This module serializes a
:class:`~repro.workload.repository.WorkloadRepository` to JSONL so that
analyses (Figures 2/3/8/9, view selection) can run offline, across
processes, or on merged multi-cluster captures.

Format: one JSON object per line; ``{"kind": "job", ...}`` records carry
job metadata, ``{"kind": "subexpression", ...}`` records the denormalized
table rows, linked by ``job_id``.  Jobs precede their subexpressions.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

from repro.common.errors import ReproError
from repro.workload.repository import (
    JobRecord,
    SubexpressionRecord,
    WorkloadRepository,
)

FORMAT_VERSION = 1


class PersistenceError(ReproError):
    """Raised when a repository capture cannot be read."""


def save_repository(repository: WorkloadRepository,
                    path: Union[str, Path]) -> int:
    """Write the repository to ``path``; returns the line count."""
    path = Path(path)
    lines = [json.dumps({"kind": "header",
                         "format_version": FORMAT_VERSION})]
    for index, job in enumerate(repository.jobs):
        lines.append(json.dumps(
            {"kind": "job", **job._asdict()}))
        for record in repository.records_of(index):
            lines.append(json.dumps(
                {"kind": "subexpression", **record._asdict()}))
    path.write_text("\n".join(lines) + "\n")
    return len(lines)


def load_repository(path: Union[str, Path]) -> WorkloadRepository:
    """Read a repository capture written by :func:`save_repository`."""
    path = Path(path)
    repository = WorkloadRepository()
    pending_job: JobRecord = None
    pending_records: List[SubexpressionRecord] = []

    def flush() -> None:
        if pending_job is not None:
            repository.add_job(pending_job, pending_records)

    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise PersistenceError(f"cannot read capture {path}: {exc}")
    if not lines:
        raise PersistenceError(f"capture {path} is empty")
    header = _parse_line(lines[0], 1)
    if header.get("kind") != "header" \
            or header.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"capture {path} has an unsupported header: {header}")

    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        payload = _parse_line(line, number)
        kind = payload.pop("kind", None)
        if kind == "job":
            flush()
            pending_records = []
            payload["input_datasets"] = tuple(payload["input_datasets"])
            pending_job = JobRecord(**payload)
        elif kind == "subexpression":
            if pending_job is None:
                raise PersistenceError(
                    f"line {number}: subexpression before any job record")
            payload["input_datasets"] = tuple(payload["input_datasets"])
            pending_records.append(SubexpressionRecord(**payload))
        else:
            raise PersistenceError(f"line {number}: unknown kind {kind!r}")
    flush()
    return repository


def merge_captures(paths: Iterable[Union[str, Path]]) -> WorkloadRepository:
    """Union several captures (e.g. one per cluster) into one repository."""
    merged = WorkloadRepository()
    for path in paths:
        repository = load_repository(path)
        for index, job in enumerate(repository.jobs):
            merged.add_job(job, repository.records_of(index))
    return merged


def _parse_line(line: str, number: int) -> dict:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"line {number}: invalid JSON ({exc})")
    if not isinstance(payload, dict):
        raise PersistenceError(f"line {number}: expected an object")
    return payload
