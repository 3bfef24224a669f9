"""EZFlowController: wires BOE + CAA onto a node stack.

One (BOE, CAA) pair is maintained per successor, as Section 3.1
requires. The controller subscribes to the node's sniffer and
sent-packet hooks:

* when the node's MAC hands a packet to successor ``s`` (ACKed), the
  BOE for ``s`` logs the packet identifier;
* when the sniffer overhears ``s`` forwarding a DATA frame onward, the
  BOE for ``s`` produces a buffer sample, which feeds the CAA;
* the CAA's decisions are applied to the CWmin of *every* transmit
  entity of this node pointing at ``s`` (own-traffic and forwarding
  queues share the successor's congestion state), and each decision's
  window is appended to ``cw_history[s]`` at the engine time it was
  taken (Figures 8 and 11).

The controller is a pure observer of the MAC — exactly the "independent
program" deployment model of the paper.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.core.boe import BufferOccupancyEstimator
from repro.core.caa import ChannelAccessAdapter
from repro.core.config import EZFlowConfig
from repro.mac.dcf import TxEntity
from repro.mac.frames import Frame, FrameKind
from repro.net.node import NodeStack
from repro.net.packet import Packet
from repro.sim.tracing import TimeSeries

NodeId = Hashable


class EZFlowController:
    """EZ-flow instance running at one node."""

    def __init__(self, node: NodeStack, config: Optional[EZFlowConfig] = None):
        self.node = node
        self.config = config or EZFlowConfig()
        self.boes: Dict[NodeId, BufferOccupancyEstimator] = {}
        self.caas: Dict[NodeId, ChannelAccessAdapter] = {}
        #: successor -> (engine time, new cw) of every CAA decision.
        self.cw_history: Dict[NodeId, TimeSeries] = {}
        node.sent_callbacks.append(self._on_packet_sent)
        node.sniffer_callbacks.append(self._on_overheard)

    # -- per-successor lazily created machinery ---------------------------

    def _machinery_for(self, successor: NodeId):
        if successor not in self.boes:
            boe = BufferOccupancyEstimator(successor, self.config.history_size)
            caa = ChannelAccessAdapter(
                self.config,
                set_cwmin=lambda cw, s=successor: self._apply_cwmin(s, cw),
                initial_cw=self.config.mincw,
            )
            boe.sample_callbacks.append(caa.on_sample)
            history = self.cw_history[successor] = TimeSeries()
            engine = self.node.engine
            caa.decision_callbacks.append(lambda d: history.append(engine.now, d.new_cw))
            self.boes[successor] = boe
            self.caas[successor] = caa
        return self.boes[successor], self.caas[successor]

    def _entities_toward(self, successor: NodeId) -> List[TxEntity]:
        return [e for e in self.node.mac.entities if e.successor == successor]

    def _apply_cwmin(self, successor: NodeId, cw: int) -> None:
        for entity in self._entities_toward(successor):
            entity.set_cwmin(cw)

    # -- hooks ---------------------------------------------------------------

    def _on_packet_sent(self, entity: TxEntity, packet: Packet, frame: Frame, now: int) -> None:
        # Only track packets that the successor must *forward*: frames
        # whose final destination is the successor itself leave no trace
        # in its forwarding buffer.
        if packet.dst == entity.successor:
            return
        boe, _ = self._machinery_for(entity.successor)
        boe.note_sent(packet.checksum)

    def _on_overheard(self, frame: Frame, now: int) -> None:
        if frame.kind is not FrameKind.DATA or frame.packet is None:
            return
        successor = frame.src
        if successor not in self.boes:
            return  # not one of our successors
        self.boes[successor].note_overheard(frame.packet.checksum)

    # -- introspection ---------------------------------------------------------

    def current_cw(self, successor: NodeId) -> Optional[int]:
        """The CAA's current window toward ``successor`` (None if unknown)."""
        caa = self.caas.get(successor)
        return caa.cw if caa is not None else None


def attach_ezflow(
    nodes: Dict[NodeId, NodeStack],
    config: Optional[EZFlowConfig] = None,
    exclude: Optional[List[NodeId]] = None,
) -> Dict[NodeId, EZFlowController]:
    """Attach an EZ-flow controller to every node (incremental deploy).

    ``exclude`` supports the paper's backward-compatibility property:
    nodes without EZ-flow simply keep standard 802.11 behaviour.
    """
    excluded = set(exclude or ())
    return {
        node_id: EZFlowController(stack, config)
        for node_id, stack in nodes.items()
        if node_id not in excluded
    }
