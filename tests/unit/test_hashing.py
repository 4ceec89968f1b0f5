"""Unit tests for deterministic hashing helpers."""

from repro.common.hashing import (
    combine_unordered,
    hash_prefix,
    short_tag,
    stable_hash,
)

#: One part of every kind the encoder knows, nested lists included.
MIXED = ("filter", 7, -3, True, False, 2.5, None, b"\x00b",
         ["a", ("b", 1, [None, 0.1])], "\u00fc")


def test_stable_hash_deterministic():
    assert stable_hash("a", 1, 2.5) == stable_hash("a", 1, 2.5)


def test_stable_hash_distinguishes_boundaries():
    assert stable_hash("ab", "c") != stable_hash("a", "bc")


def test_stable_hash_distinguishes_types():
    assert stable_hash(1) != stable_hash("1")
    assert stable_hash(1) != stable_hash(1.0)
    assert stable_hash(True) != stable_hash(1)


def test_stable_hash_nested_structures():
    assert stable_hash(["a", ["b", "c"]]) != stable_hash(["a", "b", ["c"]])
    assert stable_hash(("x", "y")) == stable_hash(["x", "y"])


def test_stable_hash_encoding_is_pinned():
    """Digests are persisted (view signatures, tags), so the encoding
    must not drift: these are the digests of the original part-by-part
    encoder."""
    assert stable_hash(*MIXED) == "bf7affd91734e7080d766c9117872280"
    assert stable_hash() == "4f53cda18c2baa0c0354bb5f9a3ecbe5"


def test_hash_prefix_continues_a_hash():
    for cut in range(len(MIXED) + 1):
        head, tail = MIXED[:cut], MIXED[cut:]
        assert stable_hash(*tail, prefix=hash_prefix(*head)) == \
            stable_hash(*MIXED)


def test_a_copied_prefix_finishes_many_hashes():
    prefix = hash_prefix("join", ["k"])
    for tail in (["d1"], ["d2"], []):
        assert stable_hash(tail, prefix=prefix.copy()) == \
            stable_hash("join", ["k"], tail)


def test_stable_hash_none():
    assert stable_hash(None) != stable_hash("None")


def test_combine_unordered_is_order_insensitive():
    assert combine_unordered(["d1", "d2"]) == combine_unordered(["d2", "d1"])


def test_combine_unordered_multiset():
    assert combine_unordered(["d1", "d1"]) != combine_unordered(["d1"])


def test_short_tag_truncates_and_differs_from_digest():
    digest = stable_hash("x")
    tag = short_tag(digest)
    assert len(tag) == 8
    assert not digest.startswith(tag)


def test_short_tag_stable():
    assert short_tag("abc") == short_tag("abc")
