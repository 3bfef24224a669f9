"""DiffQ-style differential-backlog congestion control (Warrier et al.).

A hop-by-hop scheme that *does* modify packets: each node piggybacks its
queue length on data frames, and upstream nodes prioritise links with a
large backlog differential ``b_k - b_{k+1}`` by assigning one of four
CWmin classes (the four 802.11e MAC queues). We model the piggybacking
as a per-frame side channel carried on the frame object, costing a few
header bytes per packet — the overhead EZ-flow avoids.

This is a faithful *comparison point*, not a bit-exact DiffQ port: the
published protocol has four priority classes driven by backlog
difference thresholds, which is what we implement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.mac.frames import Frame, FrameKind
from repro.net.node import NodeStack

NodeId = Hashable

#: Extra bytes DiffQ adds to every data frame (queue-length header).
DIFFQ_HEADER_BYTES = 2


@dataclass
class DiffQConfig:
    """Thresholds mapping backlog differential to CWmin classes.

    ``classes`` are (min_differential, cwmin) pairs, evaluated from the
    largest differential down; the last entry is the default.
    """

    classes: Tuple[Tuple[int, int], ...] = ((20, 16), (10, 32), (0, 64), (-(10**9), 128))

    def cwmin_for(self, differential: int) -> int:
        """CWmin class for a backlog differential (largest threshold wins)."""
        for threshold, cwmin in self.classes:
            if differential >= threshold:
                return cwmin
        return self.classes[-1][1]


class DiffQController:
    """Differential-backlog scheduler at one node (with message passing)."""

    def __init__(self, node: NodeStack, config: Optional[DiffQConfig] = None):
        self.node = node
        self.config = config or DiffQConfig()
        # Last advertised queue length per neighbour (the piggybacked info).
        self.neighbor_backlog: Dict[NodeId, int] = {}
        self.header_overhead_bytes = 0
        node.sniffer_callbacks.append(self._on_overheard)
        self._wrap_tx_start()
        self._wrap_received()

    def _wrap_received(self) -> None:
        """Also read piggybacked backlog from frames addressed to us."""
        inner = self.node.mac.on_data_received

        def wrapper(frame: Frame, now: int) -> None:
            self._read_advertisement(frame)
            if inner is not None:
                inner(frame, now)

        self.node.mac.on_data_received = wrapper

    def _wrap_tx_start(self) -> None:
        """Stamp our queue length on every outgoing data frame."""
        inner = self.node.mac.on_tx_start

        def wrapper(entity, frame: Frame) -> None:
            # Each (re)transmission carries the header: account its cost.
            self.header_overhead_bytes += DIFFQ_HEADER_BYTES
            frame.diffq_backlog = self.node.total_buffer_occupancy()
            frame.diffq_src = self.node.node_id
            self._adapt()
            if inner is not None:
                inner(entity, frame)

        self.node.mac.on_tx_start = wrapper

    def _on_overheard(self, frame: Frame, now: int) -> None:
        self._read_advertisement(frame)

    def _read_advertisement(self, frame: Frame) -> None:
        if frame.kind is not FrameKind.DATA:
            return
        backlog = getattr(frame, "diffq_backlog", None)
        src = getattr(frame, "diffq_src", None)
        if backlog is None or src is None:
            return
        self.neighbor_backlog[src] = backlog
        self._adapt()

    # -- scheduling ----------------------------------------------------------

    def _adapt(self) -> None:
        """Map each queue's backlog differential onto a CWmin class."""
        for (kind, successor), (queue, entity) in self.node.queues().items():
            advertised = self.neighbor_backlog.get(successor, 0)
            differential = len(queue) - advertised
            entity.set_cwmin(self.config.cwmin_for(differential))


def attach_diffq(
    nodes: Dict[NodeId, NodeStack],
    config: Optional[DiffQConfig] = None,
) -> Dict[NodeId, DiffQController]:
    """Attach a DiffQ controller to every node."""
    return {node_id: DiffQController(stack, config) for node_id, stack in nodes.items()}
