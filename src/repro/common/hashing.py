"""Deterministic hashing helpers used for subexpression signatures.

CloudViews identifies common computations with a *signature*: a hash that
"uniquely captures a subexpression instance including its inputs used"
(paper, Section 2.3).  Everything here is deterministic across processes and
runs -- we never rely on Python's salted ``hash()``.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional


def stable_hash(*parts: object,
                prefix: Optional["hashlib._Hash"] = None) -> str:
    """Return a 16-byte hex digest over the string forms of ``parts``.

    Parts are joined with an unambiguous separator so that
    ``stable_hash("ab", "c")`` differs from ``stable_hash("a", "bc")``.
    Nested lists/tuples are flattened with explicit brackets, again to keep
    the encoding prefix-free.

    ``prefix`` continues a hash begun by :func:`hash_prefix`:
    ``stable_hash(*tail, prefix=hash_prefix(*head))`` is
    ``stable_hash(*head, *tail)``.  The prefix is consumed, so a caller
    that keeps one passes a ``.copy()``.
    """
    body = _body(parts) + b"]"
    if prefix is None:
        return hashlib.sha256(b"[" + body).hexdigest()[:32]
    prefix.update(body)
    return prefix.hexdigest()[:32]


def hash_prefix(*parts: object) -> "hashlib._Hash":
    """The state of ``stable_hash(*parts, ...)`` after ``parts``."""
    return hashlib.sha256(b"[" + _body(parts))


def _body(items: Iterable[object]) -> bytes:
    """Each item's encoding and a separator: a list's body."""
    return b"".join([
        # Most items are names and digests: encoded here, without a call.
        (b"s:" + item.encode("utf-8") if type(item) is str
         else _encode(item)) + b"\x1f"
        for item in items])


def _encode(value: object) -> bytes:
    if isinstance(value, (list, tuple)):
        return b"[" + _body(value) + b"]"
    if isinstance(value, bytes):
        return b"b:" + value
    if isinstance(value, bool):
        return b"B:1" if value else b"B:0"
    if isinstance(value, int):
        return b"i:" + str(value).encode()
    if isinstance(value, float):
        return b"f:" + repr(value).encode()
    if value is None:
        return b"N"
    return b"s:" + str(value).encode("utf-8")


def combine_unordered(digests: Iterable[str]) -> str:
    """Hash a multiset of digests, ignoring order.

    Used for commutative operators (inner joins, unions) so that logically
    identical plans with swapped children produce the same signature.
    """
    return stable_hash(sorted(digests))


def shard_for(key: str, shards: int) -> int:
    """Deterministic shard assignment for a signature-derived key.

    Re-hashes ``key`` (a tag or strict signature -- both are themselves
    hashes of the recurring computation) so the placement is uniform and
    stable across processes and runs; the same key always lands on the
    same shard for a given shard count.
    """
    if shards <= 1:
        return 0
    return int(stable_hash("shard", key), 16) % shards


def short_tag(digest: str, length: int = 8) -> str:
    """Return the short *tag* form of a signature.

    Tags "help fetch relevant signatures for a given SCOPE job and could
    also be used for access control" (Section 2.3).  They are a truncated,
    re-hashed form so that a tag does not reveal the full signature.
    """
    return hashlib.sha256(("tag:" + digest).encode()).hexdigest()[:length]
