"""Buffer Occupancy Estimator (BOE), Section 3.2 / Algorithm 1.

Node ``N_k`` remembers the identifiers (16-bit transport checksums) of
the last ``history_size`` packets it handed to its successor ``N_{k+1}``.
When the sniffer overhears ``N_{k+1}`` forwarding a packet onward to
``N_{k+2}``, FIFO queueing implies that every identifier stored *after*
the overheard one is still sitting in the successor's buffer:

    b_{k+1} = #identifiers between the overheard packet and LastPktSent.

No message is ever exchanged; the estimate is exact whenever the
overheard packet is found in the history, and the mechanism degrades
gracefully when overhearings are missed (fewer, not wrong, samples).

Identifier collisions in the 16-bit space are handled by matching the
*most recent* occurrence, which biases the estimate low by the collision
distance — rare (1/65536 per pair) and harmless, as the CAA averages 50
samples.

The history is a deque paired with a checksum -> most-recent-position
index (positions are monotonic send counters, so pruned/evicted entries
are recognised by comparing against the head position). Lookup is O(1)
instead of the naive O(queue) reverse scan, while matching exactly the
reverse scan's most-recent-occurrence semantics; pruning stays amortised
O(1) per sent packet.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Hashable, List, Optional

from repro.core.config import EZFlowConfig


class BufferOccupancyEstimator:
    """Passive successor-buffer estimation for one (node, successor) pair."""

    def __init__(self, successor: Hashable, history_size: int = EZFlowConfig.history_size):
        if history_size < 2:
            raise ValueError("history_size must be >= 2")
        self.successor = successor
        self.history_size = history_size
        # Identifiers of packets sent to the successor, oldest first.
        self._sent: Deque[int] = deque()
        # Monotonic position (send counter) of the oldest deque entry.
        self._head = 0
        # checksum -> monotonic position of its most recent occurrence.
        # Entries going stale through pruning/eviction are detected by
        # position < head and cleaned up lazily.
        self._last_pos: Dict[int, int] = {}
        # Subscribers receiving each new raw sample b_{k+1}.
        self.sample_callbacks: List[Callable[[int], None]] = []
        self.samples_produced = 0
        self.overheard_unmatched = 0

    # -- Algorithm 1, transmission branch ---------------------------------

    def note_sent(self, checksum: int) -> None:
        """Record the identifier of a packet handed to the successor.

        Overwrites the oldest entry when the history is full; the
        rightmost element is ``LastPktSent``.
        """
        checksum &= 0xFFFF
        sent = self._sent
        sent.append(checksum)
        self._last_pos[checksum] = self._head + len(sent) - 1
        if len(sent) > self.history_size:
            evicted = sent.popleft()
            if self._last_pos.get(evicted) == self._head:
                del self._last_pos[evicted]
            self._head += 1

    # -- Algorithm 1, sniffing branch -----------------------------------

    def note_overheard(self, checksum: int) -> Optional[int]:
        """Process an overheard forwarding by the successor.

        Returns the new estimate ``b_{k+1}``, or None when the identifier
        is not in the send history (e.g. packets of another flow merging
        at the successor, or history overrun). On a 16-bit collision the
        most recent occurrence wins, which minimises the error.
        """
        checksum &= 0xFFFF
        position = self._last_pos.get(checksum)
        head = self._head
        if position is None or position < head:
            if position is not None:
                del self._last_pos[checksum]  # stale: pruned or evicted
            self.overheard_unmatched += 1
            return None
        sent = self._sent
        estimate = head + len(sent) - 1 - position
        # Everything up to and including the overheard packet has left
        # the successor's buffer; drop it so stale entries cannot match
        # later overhearings (retransmissions, 16-bit collisions).
        last_pos = self._last_pos
        for pos in range(head, position + 1):
            value = sent.popleft()
            if last_pos.get(value) == pos:
                del last_pos[value]
        self._head = position + 1
        self.samples_produced += 1
        for callback in self.sample_callbacks:
            callback(estimate)
        return estimate

    @property
    def pending(self) -> int:
        """Identifiers currently believed to be queued at the successor."""
        return len(self._sent)
