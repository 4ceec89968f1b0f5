"""Unit tests: the shard wire protocol and signature-hash routing.

The framing contract (length-prefixed JSON over ``AF_UNIX``) is the
trust boundary of the sharded deployment: a clean EOF at a frame
boundary means "peer hung up", anything else truncated or oversized is
corruption and must surface as :class:`ShardError`, and worker-side
exceptions must cross the boundary *by name* so the router re-raises
the same taxonomy type the in-process service would have raised.
"""

import socket
import struct

import pytest

from repro.common.errors import (
    ConfigError,
    InsightsError,
    InsightsTimeout,
    ShardError,
    StorageError,
)
from repro.common.hashing import shard_for
from repro.shard import shard_for_op
from repro.shard.protocol import (
    HEADER,
    MAX_FRAME_BYTES,
    error_payload,
    raise_remote,
    recv_frame,
    send_frame,
)


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_round_trip(self, pair):
        left, right = pair
        payload = {"id": 7, "method": "fetch_tags",
                   "params": {"tags": ["a", "b"], "n": 1.5}}
        send_frame(left, payload)
        assert recv_frame(right) == payload

    def test_multiple_frames_in_order(self, pair):
        left, right = pair
        for i in range(5):
            send_frame(left, {"id": i})
        assert [recv_frame(right)["id"] for _ in range(5)] == list(range(5))

    def test_clean_eof_returns_none(self, pair):
        left, right = pair
        left.close()
        assert recv_frame(right) is None

    def test_eof_mid_body_raises(self, pair):
        left, right = pair
        body = b'{"id": 1}'
        left.sendall(HEADER.pack(len(body) + 10) + body)
        left.close()
        with pytest.raises(ShardError):
            recv_frame(right)

    def test_eof_mid_header_raises(self, pair):
        left, right = pair
        left.sendall(b"\x00\x00")
        left.close()
        with pytest.raises(ShardError):
            recv_frame(right)

    def test_oversized_header_is_corruption(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ShardError):
            recv_frame(right)

    def test_undecodable_body_raises(self, pair):
        left, right = pair
        body = b"\xff\xfe not json"
        left.sendall(HEADER.pack(len(body)) + body)
        with pytest.raises(ShardError):
            recv_frame(right)

    def test_non_object_body_raises(self, pair):
        left, right = pair
        body = b"[1, 2, 3]"
        left.sendall(HEADER.pack(len(body)) + body)
        with pytest.raises(ShardError):
            recv_frame(right)


class TestErrorsByName:
    @pytest.mark.parametrize("error,expected", [
        (StorageError("disk"), StorageError),
        (InsightsError("rpc"), InsightsError),
        (InsightsTimeout("slow"), InsightsTimeout),
        (ConfigError("bad"), ConfigError),
        (ShardError("dead"), ShardError),
    ])
    def test_taxonomy_round_trips(self, error, expected):
        with pytest.raises(expected, match=str(error)):
            raise_remote(error_payload(error))

    def test_unknown_type_degrades_to_shard_error(self):
        with pytest.raises(ShardError, match="boom"):
            raise_remote({"type": "KeyError", "message": "boom"})

    def test_missing_fields_degrade_to_shard_error(self):
        with pytest.raises(ShardError):
            raise_remote({})


class TestRouting:
    def test_shard_for_is_deterministic_and_in_range(self):
        for key in (f"sig-{i}" for i in range(50)):
            shard = shard_for(key, 4)
            assert shard == shard_for(key, 4)
            assert 0 <= shard < 4

    def test_single_shard_and_unsharded_collapse_to_zero(self):
        assert shard_for("anything", 1) == 0
        assert shard_for("anything", 0) == 0

    def test_keys_spread_across_shards(self):
        hits = {shard_for(f"sig-{i}", 4) for i in range(100)}
        assert hits == {0, 1, 2, 3}

    def test_journal_ops_route_by_signature(self):
        assert (shard_for_op("sealed", {"signature": "s1"}, 4)
                == shard_for("s1", 4))
        assert (shard_for_op("created", {"view": {"signature": "s2"}}, 4)
                == shard_for("s2", 4))

    def test_global_journal_ops_route_to_shard_zero(self):
        assert shard_for_op("epoch", {"version": "v2", "epoch": 3}, 4) == 0
