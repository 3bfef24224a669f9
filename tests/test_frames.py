"""Tests for MAC frame construction."""

from repro.mac.frames import (
    MAC_ACK_BYTES,
    MAC_DATA_HEADER_BYTES,
    FrameKind,
    make_ack_frame,
    make_data_frame,
)


class FakePacket:
    size_bytes = 1000


def test_data_frame_size_includes_header():
    frame = make_data_frame("a", "b", FakePacket(), seq=1)
    assert frame.size_bytes == 1000 + MAC_DATA_HEADER_BYTES


def test_ack_frame_size():
    ack = make_ack_frame("b", "a")
    assert ack.size_bytes == MAC_ACK_BYTES


def test_data_frame_addresses():
    frame = make_data_frame("a", "b", FakePacket(), seq=7)
    assert frame.src == "a"
    assert frame.dst == "b"
    assert frame.seq == 7
    assert frame.kind is FrameKind.DATA


def test_ack_frame_addresses():
    ack = make_ack_frame("b", "a")
    assert ack.src == "b"
    assert ack.dst == "a"
    assert ack.kind is FrameKind.ACK


def test_dedup_key_uses_src_and_seq():
    packet = FakePacket()
    one = make_data_frame("a", "b", packet, seq=1)
    dup = make_data_frame("a", "b", packet, seq=1)
    other = make_data_frame("a", "b", packet, seq=2)
    assert one.dedup_key() == dup.dedup_key()
    assert one.dedup_key() != other.dedup_key()


def test_retry_flag_default_false():
    frame = make_data_frame("a", "b", FakePacket(), seq=1)
    assert not frame.retry
