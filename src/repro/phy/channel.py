"""Shared wireless channel with collisions, erasures and overhearing.

The channel tracks every in-flight transmission. A node inside the
sender's sensing set perceives the medium busy for the frame's duration;
a node inside the reception set decodes the frame at its end unless

* it was itself transmitting during any part of the frame,
* some other overlapping transmission was sensed at that node
  (co-channel interference / hidden-terminal collision), or
* an independent per-link erasure strikes (lossy-link calibration).

Decoded frames addressed to the node are delivered via
``on_frame_received``; decoded frames addressed elsewhere are delivered
via ``on_frame_overheard`` — this is the broadcast-nature side channel
EZ-flow's BOE relies on. Sensed-but-undecodable frame ends are reported
via ``on_frame_error`` so the MAC can apply EIFS.

Implementation notes (this is the hottest module of the simulator):
connectivity is static between configuration calls and topology
mutations (each mutation bumps the map's epoch; plans are tagged with
the epoch they were built under and rebuild lazily per sender, while
in-flight frames resolve under the plan snapshotted at transmit time).
Per-sender "delivery plans" — the repr-sorted attached listeners with
their receive power, decodability and loss probabilities — are built
lazily on a sender's *first transmission* and reused by every
subsequent frame
(senders that never transmit never pay a plan build; a 100-node mesh
with four flows builds plans for the handful of nodes actually on air).
Plan rows come in two shapes: full rows for nodes that can decode the
sender, and lean rows for sense-only nodes (the majority inside a large
mesh's 550 m interference radius), which skip all corruption
bookkeeping — corruption is only ever consulted where a frame is
decodable. Pairwise capture outcomes are resolved into frozensets that
are interned channel-wide, so the quadratic family of per-(sender,
node) sets collapses onto the handful of distinct ones. The repr-sort
order and the RNG draw sequence (one erasure draw per decodable frame,
one sniffer draw per lossy overhearing) are exactly the original
semantics: results are bit-identical to the unoptimized channel, just
cheaper per frame and per plan build.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from itertools import repeat as _repeat
from typing import Dict, List, Optional, Set

from repro.phy.connectivity import ConnectivityMap, NodeId
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


def _drain(iterator) -> None:
    """Exhaust an iterator at C speed (the map() side-effect idiom)."""
    deque(iterator, maxlen=0)


class PhyListener:
    """Callbacks a MAC entity implements to attach to the channel."""

    #: Plan partition, read only when a sender's plan is built: a node
    #: that can sense but not decode the sender, and whose watchers are
    #: falsy then, gets a passive row, which never calls it. Rows of
    #: nodes that can decode the sender are always active. The default,
    #: an always-truthy tuple, makes every row active.
    #: :class:`~repro.mac.dcf.Dcf` aliases its live entity list here and
    #: calls :meth:`Channel.activate_listener` when it adds its first
    #: entity, which re-partitions the plans, in-flight ones included.
    #:
    #: Within active rows, busy/idle edges are gated per edge by the
    #: port's ``contending`` count (see :class:`ChannelPort`): 1 for any
    #: listener, so every edge is delivered, while a ``Dcf`` keeps it
    #: equal to its entities in BACKOFF, the only state in which an
    #: edge can change anything. Reception callbacks are never gated.
    medium_watchers = (True,)

    def on_medium_busy(self, now: int) -> None:
        """Medium transitioned idle -> busy at this node."""

    def on_medium_idle(self, now: int) -> None:
        """Medium transitioned busy -> idle at this node."""

    def on_frame_received(self, frame, now: int) -> None:
        """A decodable frame addressed to this node ended."""

    def on_frame_overheard(self, frame, now: int) -> None:
        """A decodable frame addressed to another node ended."""

    def on_frame_error(self, now: int) -> None:
        """A sensed frame ended undecodable (collision/erasure) here."""


class Transmission:
    """One in-flight frame."""

    __slots__ = ("sender", "frame", "start", "end", "corrupted_at", "rx_plan")

    def __init__(self, sender: NodeId, frame, start: int, end: int):
        self.sender = sender
        self.frame = frame
        self.start = start
        self.end = end
        # Nodes where this frame is known undecodable; allocated lazily
        # because most frames are never corrupted anywhere.
        self.corrupted_at: Optional[Set[NodeId]] = None
        # Delivery plan captured at transmit time (set by the channel).
        self.rx_plan = None

    @property
    def duration(self) -> int:
        return self.end - self.start


class ChannelPort:
    """Per-attached-node medium state; the MAC's fast carrier-sense handle.

    ``sensed`` holds the foreign transmissions currently on the air at
    this node, ``own_tx`` its own in-flight frame. ``attach`` returns the
    port so a MAC can carrier-sense without going through the channel's
    dictionaries: the medium is idle iff ``not port.sensed and
    port.own_tx is None``.

    ``contending`` gates the busy/idle edges delivered to the listener,
    its own frame ends included: while it is 0 the channel skips
    ``on_medium_busy``/``on_medium_idle``. Attaching sets it to 1, so a
    listener that does not keep it gets every edge;
    :class:`~repro.mac.dcf.Dcf` resets it to 0 and counts its entities
    in BACKOFF there, because an edge changes nothing in any other
    state.
    """

    __slots__ = ("node_id", "listener", "sensed", "own_tx", "watchers", "contending")

    def __init__(self, node_id: NodeId, listener: PhyListener):
        self.node_id = node_id
        self.listener = listener
        self.sensed: Set[Transmission] = set()
        self.own_tx: Optional[Transmission] = None
        # Cached plan partition of the listener (see
        # PhyListener.medium_watchers); refreshed on attach.
        self.watchers = getattr(listener, "medium_watchers", (True,))
        self.contending = 1

    @property
    def idle(self) -> bool:
        return not self.sensed and self.own_tx is None


#: Default physical capture threshold (linear SIR), ns-2's classic 10 dB:
#: a frame survives a concurrent interferer whose signal is >= 10x weaker.
DEFAULT_CAPTURE_RATIO = 10.0


class Channel:
    """The shared medium; one instance per simulation."""

    def __init__(
        self,
        engine: Engine,
        connectivity: ConnectivityMap,
        rng: RngRegistry,
        capture_ratio: float = DEFAULT_CAPTURE_RATIO,
    ):
        self.engine = engine
        self.connectivity = connectivity
        self.rng = rng.stream("phy.erasures")
        if capture_ratio < 1.0:
            raise ValueError("capture_ratio must be >= 1 (linear SIR)")
        self.capture_ratio = capture_ratio
        self._ports: Dict[NodeId, ChannelPort] = {}
        # Directional erasure probability per (sender, receiver).
        self._loss: Dict[tuple, float] = {}
        # Directional *stateful* loss models per (sender, receiver) —
        # see repro.phy.linkstate. A configured model takes precedence
        # over the static probability on the same link; the plan row's
        # loss slot then carries the model object instead of a float.
        self._link_models: Dict[tuple, object] = {}
        # Probability an otherwise decodable *overheard* frame is missed
        # by the sniffer at a given node (BOE robustness experiments).
        self._overhear_loss: Dict[NodeId, float] = {}
        self.active_transmissions: List[Transmission] = []
        # sender -> (tx_plan, rx_plan), repr-sorted over the attached
        # sensors of the sender; tx_plan rows carry what frame *starts*
        # need (busy callbacks plus precomputed capture-outcome sets),
        # rx_plan rows what frame *ends* need (delivery callbacks and
        # loss probabilities). Listener methods are pre-bound so
        # per-frame dispatch skips the attribute walks. Built lazily on
        # a sender's first transmission; dropped wholesale after any
        # attach/loss-configuration change.
        self._plans: Dict[NodeId, tuple] = {}
        # node -> {sender: rx power} over the senders sensed at node,
        # and the channel-wide intern table for capture-outcome sets.
        # Both depend only on the (immutable) connectivity map and the
        # capture ratio, so they survive attach/loss reconfiguration.
        self._node_powers: Dict[NodeId, Dict[NodeId, float]] = {}
        self._capture_sets: Dict[frozenset, frozenset] = {}
        # Connectivity epoch the cached plans (and power maps) were
        # built under. Dynamic maps (churn/mobility) bump their epoch on
        # mutation; a mismatch invalidates every cached plan lazily —
        # in-flight transmissions keep the plan snapshotted at transmit
        # time, so frames already on the air resolve under the topology
        # they started in.
        self._plan_epoch: int = connectivity.epoch

    # -- wiring ---------------------------------------------------------

    def attach(self, node_id: NodeId, listener: PhyListener) -> ChannelPort:
        """Register the MAC entity of ``node_id``; returns its port."""
        if node_id not in self.connectivity.nodes():
            raise ValueError(f"node {node_id!r} not in connectivity map")
        port = self._ports.get(node_id)
        if port is None:
            port = self._ports[node_id] = ChannelPort(node_id, listener)
        else:
            port.listener = listener
            port.watchers = getattr(listener, "medium_watchers", (True,))
            port.contending = 1
        self._plans.clear()
        return port

    def set_link_loss(self, sender: NodeId, receiver: NodeId, probability: float) -> None:
        """Set the erasure probability of the directed link sender->receiver."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self._loss[(sender, receiver)] = float(probability)
        self._plans.clear()

    def set_link_model(self, sender: NodeId, receiver: NodeId, model) -> None:
        """Install a stateful loss model on the directed link sender->receiver.

        ``model`` is consulted once per otherwise-decodable frame end at
        the receiver (``model.erased() -> bool``; see
        :mod:`repro.phy.linkstate`) and takes precedence over any static
        :meth:`set_link_loss` probability on the same link. ``None``
        removes the model. Models draw from their own per-link RNG
        streams, so installing them never perturbs the channel's shared
        erasure stream — lossless runs stay bit-identical.
        """
        if model is None:
            self._link_models.pop((sender, receiver), None)
        else:
            self._link_models[(sender, receiver)] = model
        self._plans.clear()

    def link_model(self, sender: NodeId, receiver: NodeId):
        """The installed loss model of the directed link, or ``None``."""
        return self._link_models.get((sender, receiver))

    def link_model_count(self) -> int:
        """Number of directed links carrying a stateful loss model."""
        return len(self._link_models)

    def connectivity_changed(self) -> None:
        """Invalidate every topology-derived cache after a map mutation.

        Callers mutating :attr:`connectivity` through its mutation API
        need not call this — the epoch check in :meth:`_plan_for` (and
        on the transmit path) catches the change — but invalidating
        eagerly keeps the caches honest for direct inspection.
        """
        self._plans.clear()
        self._node_powers.clear()
        self._plan_epoch = self.connectivity.epoch

    def set_overhear_loss(self, node_id: NodeId, probability: float) -> None:
        """Set the sniffer miss probability at ``node_id``."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self._overhear_loss[node_id] = probability
        self._plans.clear()

    def _powers_at(self, node: NodeId) -> Dict[NodeId, float]:
        """Receive power at ``node`` of every sender it can sense (cached)."""
        powers = self._node_powers.get(node)
        if powers is None:
            connectivity = self.connectivity
            rx_power = connectivity.rx_power
            powers = self._node_powers[node] = {
                s: rx_power(node, s) for s in connectivity.senders_sensed_at(node)
            }
        return powers

    def _plan_for(self, sender: NodeId) -> tuple:
        """The precomputed plan of one sender (lazy build on first tx).

        Returns ``(tx_passive, tx_active, rx_passive, rx_active,
        passive_sets)``, where ``passive_sets`` aliases ``rx_passive``
        (the bare sensed sets, for the C-level sweeps). Rows are
        partitioned by what can ever happen at the node:

        * *passive* — sense-only for this sender AND no medium watchers
          at build time (see :attr:`PhyListener.medium_watchers`): the
          frame only occupies the node's ``sensed`` set and may capture-
          kill decodable concurrent frames there. tx rows are ``(node,
          sensed, kills)``; rx "rows" are the bare ``sensed`` sets.
        * *active* — everything else, in repr-sorted node order. tx rows
          are ``(port, node, sensed, on_busy, kills, dies)`` when the
          node can decode the sender, ``(port, node, sensed, on_busy,
          kills)`` when sense-only; rx rows ``(port, node, sensed,
          on_idle, on_rx, on_over, on_err, loss, miss)`` / ``(port,
          node, sensed, on_idle)`` respectively.

        ``kills`` holds the concurrent senders whose overlapping frame
        this one corrupts at ``node``, restricted to senders the node
        can decode (the only corruption ever consulted); ``dies`` the
        senders whose frame corrupts this one there. Both frozensets
        are interned channel-wide. A passive node that grows its first
        transmit entity is re-partitioned via
        :meth:`activate_listener`, which also patches the plans of
        in-flight frames — so the split never loses a busy/idle edge.

        Plans are tagged with the connectivity epoch they were built
        under: a dynamic map mutation (churn, mobility) invalidates the
        whole cache here, wholesale, and each sender rebuilds lazily on
        its next transmission. The per-node power maps are dropped too
        (they depend on positions); the capture-set intern table is
        content-keyed and survives.
        """
        epoch = self.connectivity.epoch
        if epoch != self._plan_epoch:
            self._plans.clear()
            self._node_powers.clear()
            self._plan_epoch = epoch
        plans = self._plans.get(sender)
        if plans is None:
            connectivity = self.connectivity
            ratio = self.capture_ratio
            interned = self._capture_sets
            tx_passive: List[tuple] = []
            tx_active: List[tuple] = []
            rx_passive: List[set] = []
            rx_active: List[tuple] = []
            # Sorted iteration keeps event order independent of set-hash
            # randomization (node ids may be strings), so identical seeds
            # reproduce identical runs across processes.
            for node in sorted(connectivity.sensors_of(sender), key=repr):
                port = self._ports.get(node)
                if port is None:
                    continue
                listener = port.listener
                powers = self._powers_at(node)
                p_new = powers.get(sender)
                if p_new is None:  # defensive: inconsistent custom maps
                    p_new = connectivity.rx_power(node, sender)
                kills = frozenset(
                    s
                    for s in connectivity.senders_received_at(node)
                    if s != sender and powers.get(s, 0.0) < ratio * p_new
                )
                kills = interned.setdefault(kills, kills)
                watchers = port.watchers
                if connectivity.can_receive(node, sender):
                    dies = frozenset(
                        s
                        for s, p in powers.items()
                        if s != sender and p_new < ratio * p
                    )
                    dies = interned.setdefault(dies, dies)
                    tx_active.append(
                        (port, node, port.sensed, listener.on_medium_busy, kills, dies)
                    )
                    rx_active.append(
                        (
                            port,
                            node,
                            port.sensed,
                            listener.on_medium_idle,
                            listener.on_frame_received,
                            listener.on_frame_overheard,
                            listener.on_frame_error,
                            # Stateful model if installed, else the
                            # static probability (0.0 = lossless).
                            self._link_models.get((sender, node))
                            or self._loss.get((sender, node), 0.0),
                            self._overhear_loss.get(node, 0.0),
                        )
                    )
                elif watchers:
                    tx_active.append(
                        (port, node, port.sensed, listener.on_medium_busy, kills)
                    )
                    rx_active.append(
                        (port, node, port.sensed, listener.on_medium_idle)
                    )
                else:
                    tx_passive.append((node, port.sensed, kills))
                    rx_passive.append(port.sensed)
            plans = self._plans[sender] = (
                tx_passive,
                tx_active,
                rx_passive,
                rx_active,
                rx_passive,  # alias: bare passive sets for the C-level sweeps
            )
        return plans

    def activate_listener(self, node_id: NodeId) -> None:
        """A passive listener now watches medium transitions.

        Called by the MAC when a node acquires its first transmit
        entity. Drops every cached plan (future transmissions rebuild
        with the node in the active partition) and patches the plans
        held by in-flight transmissions in place — the passive rx entry
        becomes an active sense-only row at its repr-sorted position —
        so the node's idle edge at those frames' ends is delivered
        exactly as an unpartitioned channel would have.
        """
        self._plans.clear()
        port = self._ports.get(node_id)
        if port is None:
            return
        sensed_set = port.sensed
        listener = port.listener
        key = repr(node_id)
        patched = set()
        for tx in self.active_transmissions:
            plan = tx.rx_plan
            if plan is None or id(plan) in patched:
                continue
            patched.add(id(plan))
            rx_passive, rx_active = plan[2], plan[3]
            for i, row_sensed in enumerate(rx_passive):
                if row_sensed is sensed_set:
                    del rx_passive[i]
                    position = 0
                    for j, row in enumerate(rx_active):
                        if repr(row[1]) < key:
                            position = j + 1
                    rx_active.insert(
                        position, (port, node_id, sensed_set, listener.on_medium_idle)
                    )
                    break

    # -- carrier sense --------------------------------------------------

    def is_idle(self, node_id: NodeId) -> bool:
        """True when ``node_id`` senses no transmission and is not sending."""
        port = self._ports[node_id]
        return not port.sensed and port.own_tx is None

    def is_transmitting(self, node_id: NodeId) -> bool:
        """True while ``node_id`` has a frame of its own in the air."""
        return self._ports[node_id].own_tx is not None

    # -- transmission ---------------------------------------------------

    def transmit(self, sender: NodeId, frame, duration_us: int) -> Transmission:
        """Start a frame transmission from ``sender`` lasting ``duration_us``.

        The MAC must not call this while the sender already transmits.
        Returns the transmission record; completion is self-scheduled.
        """
        sender_port = self._ports[sender]
        if sender_port.own_tx is not None:
            raise RuntimeError(f"node {sender!r} is already transmitting")
        if duration_us <= 0:
            raise ValueError("duration must be positive")
        now = self.engine.now
        tx = Transmission(sender, frame, now, now + duration_us)
        sender_port.own_tx = tx
        self.active_transmissions.append(tx)

        corrupted = None
        plans = self._plans.get(sender)
        if plans is None or self._plan_epoch != self.connectivity.epoch:
            plans = self._plan_for(sender)
        tx.rx_plan = plans
        if not plans[0]:
            pass  # dense-entity topology (chains/testbed): no passive rows
        elif len(self.active_transmissions) == 1:
            # Nothing else on the air anywhere: every sensed set is
            # empty, so no captures are possible — occupy the passive
            # bystanders' media in one C-level sweep.
            _drain(map(set.add, plans[4], _repeat(tx)))
        else:
            for node, sensed, kills in plans[0]:
                # Passive bystander: occupy the medium and resolve
                # captures against decodable concurrent frames; nothing
                # to call.
                if sensed and kills:
                    for other in sensed:
                        if other.sender in kills:
                            other_corrupted = other.corrupted_at
                            if other_corrupted is None:
                                other_corrupted = other.corrupted_at = set()
                            other_corrupted.add(node)
                sensed.add(tx)
        for row in plans[1]:
            if len(row) == 5:
                # Sense-only node with medium watchers: no corruption
                # bookkeeping for tx itself (it can never decode here) —
                # only capture kills plus the busy transition.
                port, node, sensed, on_busy, kills = row
                was_idle = port.own_tx is None and not sensed
                if sensed and kills:
                    for other in sensed:
                        if other.sender in kills:
                            other_corrupted = other.corrupted_at
                            if other_corrupted is None:
                                other_corrupted = other.corrupted_at = set()
                            other_corrupted.add(node)
                sensed.add(tx)
                if was_idle and port.contending:
                    on_busy(now)
                continue
            port, node, sensed, on_busy, kills, dies = row
            # A node that is itself transmitting cannot decode anything.
            if port.own_tx is not None:
                if corrupted is None:
                    corrupted = tx.corrupted_at = set()
                corrupted.add(node)
                was_idle = False
            else:
                was_idle = not sensed
            # Physical capture: overlapping frames only corrupt each
            # other at this node when their signal ratio is below the
            # capture threshold. A 1-hop frame therefore survives 2-hop
            # interference (d^-4 gives ~12 dB), which is what lets
            # mutually hidden links fire in parallel successfully —
            # the paper's Table 4 activation patterns. The comparisons
            # are pre-resolved into the kills/dies sets.
            if sensed and (kills or dies):
                for other in sensed:
                    other_sender = other.sender
                    if other_sender in kills:
                        other_corrupted = other.corrupted_at
                        if other_corrupted is None:
                            other_corrupted = other.corrupted_at = set()
                        other_corrupted.add(node)
                    if other_sender in dies:
                        if corrupted is None:
                            corrupted = tx.corrupted_at = set()
                        corrupted.add(node)
            sensed.add(tx)
            if was_idle and port.contending:
                on_busy(now)

        # Engine.post inlined (hot path): completion is self-scheduled.
        engine = self.engine
        seq = engine._seq
        engine._seq = seq + 1
        heappush(engine._heap, (now + duration_us, seq, self._finish, (tx,)))
        return tx

    def _finish(self, tx: Transmission) -> None:
        now = self.engine.now
        sender = tx.sender
        sender_port = self._ports[sender]
        sender_port.own_tx = None
        self.active_transmissions.remove(tx)

        rng_random = self.rng.random
        corrupted = tx.corrupted_at
        frame = tx.frame
        dst = frame.dst
        plan = tx.rx_plan
        # Passive bystanders: release the medium in one C-level sweep —
        # nothing to call. (Their order relative to the active rows is
        # unobservable: passive rows never draw RNG, post events, or run
        # callbacks, and every row only touches its own node's state.)
        if plan[2]:
            _drain(map(set.discard, plan[2], _repeat(tx)))
        for row in plan[3]:
            if len(row) == 4:
                # Sense-only node with medium watchers: release the
                # medium and report the idle transition.
                port, node, sensed, on_idle = row
                sensed.discard(tx)
                if not sensed and port.own_tx is None and port.contending:
                    on_idle(now)
                continue
            port, node, sensed, on_idle, on_rx, on_over, on_err, loss, miss = row
            sensed.discard(tx)
            decodable = corrupted is None or node not in corrupted
            if decodable and loss:
                # The loss slot is either a static probability (drawn
                # from the shared erasure stream — the original path,
                # draw-for-draw) or a stateful per-link model with its
                # own stream (repro.phy.linkstate).
                if loss.__class__ is float:
                    if rng_random() < loss:
                        decodable = False
                elif loss.erased():
                    decodable = False
            if decodable:
                if dst == node:
                    on_rx(frame, now)
                elif not miss or rng_random() >= miss:
                    on_over(frame, now)
            else:
                # Reception-grade signal that arrived corrupted: the PHY
                # saw a frame but could not decode it -> EIFS applies.
                # Sense-only signals merely occupy the medium (no PLCP
                # decode is attempted), matching ns-2's behaviour.
                on_err(now)
            if not sensed and port.own_tx is None and port.contending:
                on_idle(now)

        # The sender's own view: it was busy with its own transmission.
        if not sender_port.sensed and sender_port.own_tx is None and sender_port.contending:
            sender_port.listener.on_medium_idle(now)
