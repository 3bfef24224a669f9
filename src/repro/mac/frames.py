"""MAC frame representation.

Only the fields that influence timing and protocol behaviour are
modelled: kind, one-hop addresses, payload size, a per-sender sequence
number for duplicate filtering, and the retry flag.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Hashable, Optional

MAC_DATA_HEADER_BYTES = 28  # 24-byte MAC header + 4-byte FCS
MAC_ACK_BYTES = 14


class FrameKind(enum.Enum):
    """Frame types the simulator models (RTS/CTS is disabled, §5.1)."""

    DATA = "data"
    ACK = "ack"


@dataclass(slots=True)
class Frame:
    """One MAC frame in flight."""

    kind: FrameKind
    src: Hashable
    dst: Hashable
    payload_bytes: int = 0
    packet: Optional[object] = None
    seq: int = 0
    retry: bool = False
    # Piggyback fields stamped by message-passing baselines (DiffQ);
    # declared here because Frame is slotted for dispatch speed.
    diffq_backlog: Optional[int] = None
    diffq_src: Optional[Hashable] = None

    @property
    def size_bytes(self) -> int:
        """Total on-air MAC bytes (header + payload, or ACK size)."""
        if self.kind is FrameKind.ACK:
            return MAC_ACK_BYTES
        return MAC_DATA_HEADER_BYTES + self.payload_bytes

    def dedup_key(self) -> tuple:
        """Key used by receivers to filter MAC-level duplicates."""
        return (self.src, self.seq)


def make_data_frame(src, dst, packet, seq: int) -> Frame:
    """Build a DATA frame carrying ``packet`` (which has ``size_bytes``)."""
    return Frame(
        kind=FrameKind.DATA,
        src=src,
        dst=dst,
        payload_bytes=packet.size_bytes,
        packet=packet,
        seq=seq,
    )


def make_ack_frame(src, dst) -> Frame:
    """Build the 14-byte MAC acknowledgement for a received data frame."""
    return Frame(kind=FrameKind.ACK, src=src, dst=dst)
