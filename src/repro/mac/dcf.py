"""IEEE 802.11 DCF with per-queue contention entities.

One :class:`Dcf` instance per node. The node may hold several transmit
queues (own traffic vs forwarded, one per successor, as EZ-flow
requires); each queue is driven by a :class:`TxEntity` running its own
CSMA/CA backoff with its own ``CWmin`` — the single parameter EZ-flow's
CAA adapts. Entities of the same node observe the same medium; if two
fire in the same slot the first wins and the loser suffers a *virtual
collision* (doubles its window and redraws), mirroring EDCA.

Backoff is event-efficient: instead of per-slot timers, each entity
schedules a single fire event and, when the medium turns busy, converts
elapsed idle time back into consumed slots.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Hashable, List, Optional

from repro.mac.frames import Frame, FrameKind, make_ack_frame, make_data_frame
from repro.mac.queues import FifoQueue
from repro.phy.channel import Channel, PhyListener
from repro.phy.rates import DSSS_1MBPS, PhyRates
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

NodeId = Hashable

#: Hoisted enum members (hot-path identity checks).
_ACK = FrameKind.ACK
_DATA = FrameKind.DATA


@dataclass
class DcfConfig:
    """Tunable MAC parameters.

    ``cwmin``/``cwmax`` bound the contention window; both must be powers
    of two (the paper's hardware constraint). ``hw_cw_cap`` optionally
    reproduces the Madwifi flaw where CWmin settings above 2^10 have no
    effect (Section 4.1): EZ-flow may *request* larger windows but the
    MAC clamps what is actually used.
    """

    cwmin: int = 16
    cwmax: int = 1024
    retry_limit: int = 7
    rates: PhyRates = field(default_factory=lambda: DSSS_1MBPS)
    ack_timeout_slack_us: int = 20
    hw_cw_cap: Optional[int] = None
    dedup_cache_size: int = 64

    def __post_init__(self):
        for name in ("cwmin", "cwmax"):
            value = getattr(self, name)
            if value < 1 or value & (value - 1):
                raise ValueError(f"{name} must be a positive power of two")
        if self.cwmax < self.cwmin:
            raise ValueError("cwmax must be >= cwmin")
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be >= 1")


class TxEntity:
    """Backoff state machine for one transmit queue."""

    IDLE = "idle"
    BACKOFF = "backoff"
    TX = "tx"

    def __init__(self, dcf: "Dcf", name: str, queue: FifoQueue, successor: NodeId):
        self.dcf = dcf
        self.name = name
        self.queue = queue
        self.successor = successor
        self.cwmin = dcf.config.cwmin
        self.cw = self.cwmin
        # Every change of state into or out of BACKOFF moves the port's
        # count of contending entities (ChannelPort.contending), which
        # gates the channel's busy/idle upcalls to this MAC.
        self._port = dcf._port
        self.state = TxEntity.IDLE
        self.retries = 0
        self.slots_remaining = 0
        self.backoff_started_at: Optional[int] = None
        # Backoff timer: generation-checked fire-and-forget posts instead
        # of cancellable Event objects (armed <-> a live generation is in
        # the heap; bumping the generation disarms a stale post).
        self.fire_armed = False
        self._fire_gen = 0
        self.pending_frame: Optional[Frame] = None
        # Statistics.
        self.tx_attempts = 0
        self.tx_successes = 0
        self.tx_drops = 0
        self.virtual_collisions = 0

    # -- CWmin adaptation (EZ-flow's knob) -----------------------------

    def set_cwmin(self, cwmin: int) -> None:
        """Adapt this queue's minimum contention window.

        Takes effect on the next backoff draw; the hardware cap (if
        configured) silently clamps the value actually used, like the
        Madwifi firmware does.
        """
        if cwmin < 1 or cwmin & (cwmin - 1):
            raise ValueError("cwmin must be a positive power of two")
        self.cwmin = cwmin

    def effective_cwmin(self) -> int:
        """CWmin actually used: the requested value, hardware-clamped."""
        cap = self.dcf.config.hw_cw_cap
        if cap is not None:
            return min(self.cwmin, cap)
        return self.cwmin

    # -- queue interaction ----------------------------------------------

    def notify_enqueue(self) -> None:
        """Called by the node stack after pushing into ``self.queue``."""
        if self.state is TxEntity.IDLE and not self.queue.is_empty():
            self._start_access()

    def _start_access(self) -> None:
        self.state = TxEntity.BACKOFF
        self._port.contending += 1
        self.retries = 0
        self.cw = self.effective_cwmin()
        self._draw_backoff()
        self._try_resume()

    def _draw_backoff(self) -> None:
        self.slots_remaining = self.dcf.rng.randrange(self.cw)

    # -- backoff clock ----------------------------------------------------

    def _try_resume(self) -> None:
        """(Re)arm the fire timer if the medium is idle."""
        if self.state is not TxEntity.BACKOFF or self.fire_armed:
            return
        dcf = self.dcf
        port = dcf._port
        if port.sensed or port.own_tx is not None:
            return
        # current_ifs_us inlined (the IFS read from the precomputed
        # attributes rather than through the property descriptors).
        slot = dcf._slot_us
        ifs = dcf._eifs_us if dcf._use_eifs else dcf._difs_us
        engine = dcf.engine
        delay = ifs + self.slots_remaining * slot
        self.backoff_started_at = engine.now + ifs
        self._fire_gen = gen = self._fire_gen + 1
        self.fire_armed = True
        # Engine.post inlined (this is the single hottest scheduling
        # site): push the fire-and-forget 4-tuple directly. A stale
        # timer (suspended before firing) dies on its generation check.
        seq = engine._seq
        engine._seq = seq + 1
        heappush(engine._heap, (engine.now + delay, seq, self._fire, (gen,)))

    def _suspend(self) -> None:
        """Medium went busy: cancel the timer, bank consumed slots."""
        if not self.fire_armed:
            return
        self.fire_armed = False
        self._fire_gen += 1
        now = self.dcf.engine.now
        if self.backoff_started_at is not None and now > self.backoff_started_at:
            elapsed_slots = (now - self.backoff_started_at) // self.dcf._slot_us
            self.slots_remaining = max(0, self.slots_remaining - int(elapsed_slots))
        self.backoff_started_at = None

    def _fire(self, gen: int) -> None:
        if gen != self._fire_gen or not self.fire_armed:
            return  # a stale timer; it was suspended meanwhile
        self.fire_armed = False
        self.backoff_started_at = None
        self.slots_remaining = 0
        if self.queue.is_empty():  # pragma: no cover - defensive
            self.state = TxEntity.IDLE
            self._port.contending -= 1
            return
        dcf = self.dcf
        port = dcf._port
        if port.sensed or port.own_tx is not None or dcf._transmitting_entity is not None:
            # Lost an internal race: another entity of this node is
            # transmitting (or still awaiting its ACK — the medium can
            # be idle during the SIFS/ACK window after a lost ACK, but
            # the radio's exchange is not over) -> virtual collision.
            self.virtual_collisions += 1
            self._on_failure()
            return
        self.state = TxEntity.TX
        port.contending -= 1
        packet = self.queue.peek()
        self.pending_frame = make_data_frame(
            self.dcf.node_id, self.successor, packet, self.dcf.next_seq()
        )
        self.pending_frame.retry = self.retries > 0
        self.tx_attempts += 1
        self.dcf.start_data_transmission(self)

    # -- outcomes ---------------------------------------------------------

    def on_ack(self) -> None:
        """ACK received for the pending frame."""
        self.tx_successes += 1
        packet = self.queue.pop()
        frame = self.pending_frame
        self.pending_frame = None
        self.retries = 0
        self.cw = self.effective_cwmin()
        self.dcf.notify_tx_success(self, packet, frame)
        self._next_or_idle()

    def on_ack_timeout(self) -> None:
        """No ACK arrived: collision or loss on the link."""
        self._on_failure()

    def _on_failure(self) -> None:
        self.pending_frame = None
        self.retries += 1
        if self.retries > self.dcf.config.retry_limit:
            packet = self.queue.pop()
            self.tx_drops += 1
            self.dcf.notify_tx_drop(self, packet)
            self.retries = 0
            self.cw = self.effective_cwmin()
            self._next_or_idle()
            return
        self.cw = min(self.cw * 2, self.dcf.config.cwmax)
        # A virtual collision fails the entity while still in BACKOFF;
        # an ACK timeout fails it from TX.
        if self.state is not _BACKOFF:
            self.state = TxEntity.BACKOFF
            self._port.contending += 1
        self._draw_backoff()
        self._try_resume()

    def _next_or_idle(self) -> None:
        # Entered from TX (ACK, or a drop after an ACK timeout) or, after
        # a virtual collision's drop, from BACKOFF.
        was_backoff = self.state is _BACKOFF
        if self.queue.is_empty():
            self.state = TxEntity.IDLE
            if was_backoff:
                self._port.contending -= 1
        else:
            # Post-backoff before the next frame.
            self.state = TxEntity.BACKOFF
            if not was_backoff:
                self._port.contending += 1
            self._draw_backoff()
            self._try_resume()


#: Hoisted TxEntity.BACKOFF for identity checks in per-frame loops.
_BACKOFF = TxEntity.BACKOFF


class Dcf(PhyListener):
    """The MAC of one node: several TxEntities sharing one radio."""

    def __init__(
        self,
        engine: Engine,
        channel: Channel,
        node_id: NodeId,
        config: Optional[DcfConfig] = None,
        rng: Optional[RngRegistry] = None,
    ):
        self.engine = engine
        self.channel = channel
        self.node_id = node_id
        self.config = config or DcfConfig()
        registry = rng or RngRegistry(0)
        self.rng = registry.stream(f"mac.{node_id}")
        self.entities: List[TxEntity] = []
        # Plan partition (PhyListener.medium_watchers): alias the live
        # entity list, so a node with no transmit queues (pure sink or
        # bystander, most of a large mesh) gets passive rows in the
        # plans of senders it only senses. Per edge, the channel gates
        # on the port's count of entities in BACKOFF (set to 0 below).
        self.medium_watchers = self.entities
        self._seq = 0
        self._transmitting_entity: Optional[TxEntity] = None
        self._ack_gen = 0
        self._awaiting_ack_from: Optional[NodeId] = None
        self._ack_timeout_cache: Dict[int, int] = {}
        self._ack_frames: Dict[NodeId, Frame] = {}
        self._use_eifs = False
        # Hot-path constants hoisted off config.rates (immutable): the
        # backoff clock reads them tens of thousands of times per run.
        rates = self.config.rates
        self._sifs_us = rates.sifs_us
        self._slot_us = rates.slot_time_us
        self._difs_us = rates._difs_us
        self._eifs_us = rates._eifs_us
        self._ack_tx_us = rates.ack_tx_time_us()
        # frame size -> airtime; data frames share a handful of sizes.
        self._duration_cache: Dict[int, int] = {}
        self._dedup: "OrderedDedup" = OrderedDedup(self.config.dedup_cache_size)
        # Upper-layer callbacks (wired by the node stack).
        self.on_data_received: Optional[Callable[[Frame, int], None]] = None
        self.on_data_overheard: Optional[Callable[[Frame, int], None]] = None
        self.on_tx_start: Optional[Callable[[TxEntity, Frame], None]] = None
        self.on_tx_success: Optional[Callable[[TxEntity, object, Frame], None]] = None
        self._port = channel.attach(node_id, self)
        self._port.contending = 0

    # -- wiring -----------------------------------------------------------

    def add_entity(self, name: str, queue: FifoQueue, successor: NodeId) -> TxEntity:
        """Create the transmit entity for one (queue, successor) pair."""
        entity = TxEntity(self, name, queue, successor)
        if not self.entities:
            # First entity: this MAC was a passive bystander for medium
            # transitions; the channel re-partitions its plans (including
            # those of frames currently in the air) so busy/idle edges
            # are delivered from here on.
            self.channel.activate_listener(self.node_id)
        self.entities.append(entity)
        return entity

    def next_seq(self) -> int:
        """Allocate the next MAC sequence number of this node."""
        self._seq += 1
        return self._seq

    # -- medium state -----------------------------------------------------

    def current_ifs_us(self) -> int:
        """DIFS normally, EIFS after a reception error (802.11 rule)."""
        rates = self.config.rates
        return rates.eifs_us if self._use_eifs else rates.difs_us

    # -- transmit path ------------------------------------------------------

    def start_data_transmission(self, entity: TxEntity) -> None:
        """Put the entity's pending frame on the air and arm the ACK wait."""
        if self._transmitting_entity is not None:  # pragma: no cover
            raise RuntimeError(
                f"node {self.node_id!r}: transmission started while "
                f"entity {self._transmitting_entity.name!r} awaits its ACK"
            )
        frame = entity.pending_frame
        if self.on_tx_start is not None:
            # Last chance to stamp per-frame metadata (e.g. DiffQ's
            # piggybacked queue length) before the frame hits the air.
            self.on_tx_start(entity, frame)
        config = self.config
        duration = self._duration_cache.get(frame.size_bytes)
        if duration is None:
            duration = self._duration_cache[frame.size_bytes] = (
                config.rates.frame_tx_time_us(frame.size_bytes)
            )
        self._transmitting_entity = entity
        self._awaiting_ack_from = entity.successor
        self.channel.transmit(self.node_id, frame, duration)
        # Suspend every other entity: our own transmission occupies the radio.
        for other in self.entities:
            if other is not entity and other.fire_armed:
                other._suspend()
        timeout = self._ack_timeout_cache.get(duration)
        if timeout is None:
            rates = config.rates
            timeout = self._ack_timeout_cache[duration] = (
                duration
                + rates.sifs_us
                + rates.ack_tx_time_us()
                + rates.slot_time_us
                + config.ack_timeout_slack_us
            )
        self._ack_gen = gen = self._ack_gen + 1
        engine = self.engine
        seq = engine._seq
        engine._seq = seq + 1
        heappush(engine._heap, (engine.now + timeout, seq, self._ack_timed_out, (gen,)))

    def _ack_timed_out(self, gen: int) -> None:
        if gen != self._ack_gen:
            return  # the exchange completed; this timeout was disarmed
        entity = self._transmitting_entity
        self._transmitting_entity = None
        self._awaiting_ack_from = None
        if entity is not None:
            entity.on_ack_timeout()
        self._resume_all()

    def notify_tx_success(self, entity: TxEntity, packet, frame: Frame) -> None:
        """Propagate a confirmed (ACKed) handoff to the upper layer."""
        if self.on_tx_success is not None:
            self.on_tx_success(entity, packet, frame)

    def notify_tx_drop(self, entity: TxEntity, packet) -> None:
        """A no-op: the one call out of the MAC a retry-limit drop makes.

        ``TxEntity.tx_drops`` counts the drops. The method stays because
        ``ezbench/tracing.py`` wraps it by name to count ``mac.tx_drops``.
        """

    # -- PhyListener ---------------------------------------------------------

    def on_medium_busy(self, now: int) -> None:
        # TxEntity._suspend inlined (minus its fire_armed re-check,
        # done by this loop): these per-frame-edge loops carry the
        # backoff clock for the whole simulation.
        slot = self._slot_us
        for entity in self.entities:
            if entity.fire_armed:
                entity.fire_armed = False
                entity._fire_gen += 1
                started = entity.backoff_started_at
                if started is not None and now > started:
                    elapsed = (now - started) // slot
                    entity.slots_remaining = max(
                        0, entity.slots_remaining - int(elapsed)
                    )
                entity.backoff_started_at = None

    def on_medium_idle(self, now: int) -> None:
        # The channel only reports idle transitions, so the medium check
        # of _try_resume is already satisfied here; its body is inlined
        # (same arithmetic, same seq draw) with the state/armed/port
        # guards hoisted into the loop.
        slot = self._slot_us
        ifs = self._eifs_us if self._use_eifs else self._difs_us
        engine = self.engine
        heap = engine._heap
        for entity in self.entities:
            if entity.state is _BACKOFF and not entity.fire_armed:
                entity.backoff_started_at = now + ifs
                entity._fire_gen = gen = entity._fire_gen + 1
                entity.fire_armed = True
                seq = engine._seq
                engine._seq = seq + 1
                heappush(
                    heap,
                    (
                        now + ifs + entity.slots_remaining * slot,
                        seq,
                        entity._fire,
                        (gen,),
                    ),
                )

    def _resume_all(self) -> None:
        port = self._port
        if port.sensed or port.own_tx is not None:
            return
        self.on_medium_idle(self.engine.now)

    def on_frame_received(self, frame: Frame, now: int) -> None:
        if frame.kind is _ACK:
            self._handle_ack(frame)
            return
        # DATA addressed to us: always ACK (802.11 ACKs even duplicates).
        self._send_ack(frame)
        self._use_eifs = False
        if self._dedup.seen((frame.src, frame.seq)):
            return
        if self.on_data_received is not None:
            self.on_data_received(frame, now)

    def _handle_ack(self, frame: Frame) -> None:
        if (
            self._transmitting_entity is not None
            and frame.src == self._awaiting_ack_from
        ):
            self._ack_gen += 1  # disarm the pending timeout post
            entity = self._transmitting_entity
            self._transmitting_entity = None
            self._awaiting_ack_from = None
            self._use_eifs = False
            entity.on_ack()
            self._resume_all()

    def _send_ack(self, data_frame: Frame) -> None:
        """Reply with an ACK after SIFS (no carrier sense for ACKs)."""
        # ACK frames are immutable and this node sends at most one at a
        # time, so one cached frame per destination suffices.
        dst = data_frame.src
        ack = self._ack_frames.get(dst)
        if ack is None:
            ack = self._ack_frames[dst] = make_ack_frame(self.node_id, dst)
        engine = self.engine
        seq = engine._seq
        engine._seq = seq + 1
        heappush(
            engine._heap,
            (
                engine.now + self._sifs_us,
                seq,
                self._do_send_ack,
                (ack, self._ack_tx_us),
            ),
        )

    def _do_send_ack(self, ack: Frame, duration: int) -> None:
        if self._port.own_tx is None:
            self.channel.transmit(self.node_id, ack, duration)

    def on_frame_overheard(self, frame: Frame, now: int) -> None:
        self._use_eifs = False
        if frame.kind is _DATA and self.on_data_overheard is not None:
            self.on_data_overheard(frame, now)

    def on_frame_error(self, now: int) -> None:
        self._use_eifs = True


class OrderedDedup:
    """Fixed-size recently-seen cache for duplicate filtering."""

    def __init__(self, size: int):
        self.size = size
        self._order: Deque[tuple] = deque()
        self._set: set = set()

    def seen(self, key: tuple) -> bool:
        """Record ``key``; return True when it was already present."""
        if key in self._set:
            return True
        self._set.add(key)
        self._order.append(key)
        if len(self._order) > self.size:
            self._set.discard(self._order.popleft())
        return False
