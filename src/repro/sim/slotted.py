"""Slot-synchronous fast tier: the paper's discrete-time model on graphs.

The event core resolves every frame (backoff slots, SIFS, ACKs); this
module resolves one *contention phase per slot* — the abstraction the
paper itself uses to analyse EZ-flow (Section 6) and that
:mod:`repro.analysis` implements for K-hop chains. Here the same three
pieces are generalised from chains to arbitrary connectivity maps:

* :func:`sample_transmitters` — the winner/activation process. Among
  the backlogged contenders a winner is drawn with probability
  proportional to ``1/cw``; the winner's reception neighbours
  carrier-sense it and defer; everybody still contending is hidden from
  all transmitters so far and recurses. On a chain with
  ``defer_of(w) = {w-1, w+1}`` this consumes the *exact* RNG draw
  sequence of :func:`repro.analysis.activation.sample_activation`
  (which now delegates here).
* contention-window rules — per-slot generalisations of the adaptation
  laws the event tier implements as controllers:
  :class:`FixedCw` (standard 802.11 / static penalty assignments),
  :class:`EZFlowCw` (double above ``b_max``, halve below ``b_min`` on
  the successor backlog, Eq. 2), :class:`DiffQCw` (window class from
  the differential backlog). The adaptive rules revisit only the nodes
  a slot's queue moves can change, so a slot costs what moved in it.
* :class:`SlottedMesh` — the per-node random walk: workload injection,
  one contention phase, link outcomes (a transmission ``u -> v``
  succeeds iff ``v`` decodes ``u`` and no *other* transmitter is
  decodable at ``v`` — hidden 2-hop interferers are captured through,
  matching :mod:`repro.phy`), buffer recursion ``b += z_in - z_out``,
  then the cw rule.

Connectivity is duck-typed, RNG streams are injected and loss models
are a callable: it is the execution core behind the
``fidelity=slotted`` engine tier (:mod:`repro.experiments.tiers`),
while scenario wiring — topology generation, routes, loss/churn
schedules, metrics — stays in the harness layers. The parameters the
two tiers share are read from their one declaration: EZ-flow's
thresholds and window bounds from :class:`~repro.core.config.EZFlowConfig`,
DCF's windows and retry limit from :class:`~repro.mac.dcf.DcfConfig`,
the queue capacity from :mod:`repro.mac.queues` and the on/off means
from :mod:`repro.traffic.workloads`. Deliberate approximations versus
the event tier are documented on :class:`SlottedMesh`.
"""

from __future__ import annotations

from bisect import bisect
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, filterfalse
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.config import EZFlowConfig
from repro.mac.dcf import DcfConfig
from repro.mac.queues import DEFAULT_CAPACITY
from repro.traffic.workloads import MEAN_OFF_S, MEAN_ON_S

NodeId = Hashable

#: The event tier's defaults, which this tier runs with.
_EZFLOW = EZFlowConfig()
_DCF = DcfConfig()


def sample_transmitters(
    contenders,
    cw,
    defer_of: Callable[[NodeId], object],
    rng,
) -> List[NodeId]:
    """Draw one slot's transmitter set by running the winner process.

    ``contenders`` are the backlogged nodes; ``cw`` maps (or indexes)
    node -> contention window, or ``None`` to assert every window is
    equal (and a power of two); ``defer_of(winner)`` is the container
    of nodes that carrier-sense the winner and leave the contender set
    (its reception neighbours). Winners are appended in selection
    order. The draw sequence — one uniform draw over the sorted
    remaining contenders per winner — replicates ``rng.choices(ordered,
    weights)`` bit for bit (same single ``rng.random()`` per winner,
    same accumulate/bisect arithmetic), so pinned seeds produce
    identical transmitter sets through either entry point; the inline
    spelling just skips ``choices``'s per-call setup, which dominates
    at mesh-tier call rates.

    The ``cw=None`` fast path is *also* bit-identical, not just
    distribution-identical: with a common weight ``w = 2**-k`` the
    cumulative grid ``(i+1)*w`` and the dart ``random()*(n*w)`` are
    both exact scalings by ``w`` (power-of-two multiplication never
    rounds), so ``bisect`` over the grid reduces to
    ``min(floor(random()*n), n-1)`` exactly.
    """
    weight = None if cw is None else {node: 1.0 / cw[node] for node in contenders}
    return _draw_transmitters(sorted(contenders), weight, defer_of, rng)


def _draw_transmitters(
    ordered: List[NodeId],
    weight: Optional[Dict[NodeId, float]],
    defer_of: Callable[[NodeId], object],
    rng,
) -> List[NodeId]:
    """:func:`sample_transmitters` on sorted contenders and ready weights.

    ``weight`` maps node -> ``1.0 / window`` (or is ``None`` for the
    uniform fast path); ``ordered`` is consumed. Each round's
    cumulative weights, winner removal and deferral filter run at C
    level (``map``/``accumulate``, ``list.pop``, ``filterfalse``), so a
    round costs no Python bytecode per remaining contender. Filtering
    keeps the list sorted — no re-sort per winner.
    """
    transmitters: List[NodeId] = []
    if weight is None:
        while ordered:
            n = len(ordered)
            if n == 1:
                rng.random()  # consume the draw the weighted pick would
                transmitters.append(ordered[0])
                break
            index = int(rng.random() * n)
            winner = ordered.pop(index if index < n else n - 1)
            transmitters.append(winner)
            ordered = list(filterfalse(defer_of(winner).__contains__, ordered))
        return transmitters
    weight_of = weight.__getitem__
    while ordered:
        n = len(ordered)
        if n == 1:
            rng.random()  # consume the draw the weighted pick would
            transmitters.append(ordered[0])
            break
        cum = list(accumulate(map(weight_of, ordered)))
        winner = ordered.pop(bisect(cum, rng.random() * (cum[-1] + 0.0), 0, n - 1))
        transmitters.append(winner)
        ordered = list(filterfalse(defer_of(winner).__contains__, ordered))
    return transmitters


# -- contention-window rules ----------------------------------------------


class FixedCw:
    """Windows never adapt (standard 802.11, and the static penalty
    strategy once the initial per-node assignment encodes it).

    A rule serves one :class:`SlottedMesh`. The mesh hands it each new
    successor map (``set_routes``: every forwarding node -> its next
    hops) and, once per slot, calls ``update(cw, queues, moved)``:
    ``queues`` maps each node to its FIFO (rules read only its ``len``)
    and ``moved`` lists the nodes whose queue was pushed or popped in
    the slot. ``update`` rewrites ``cw`` in place and returns the nodes
    whose window it changed.
    """

    #: Static rules let the mesh skip the per-slot rule call.
    adapts = False

    def set_routes(self, successors: Dict[NodeId, Tuple[NodeId, ...]]) -> None:
        """Nothing to index."""

    def update(self, cw, queues, moved) -> Sequence[NodeId]:
        """No-op."""
        return ()


class _BacklogRule:
    """Bookkeeping shared by the adaptive rules: which nodes to visit.

    A routed node's window is a function of the queues it reads (its
    successors', plus its own when :attr:`reads_own_queue`) and, for a
    stateful rule, of its current window. So a slot can only change
    the readers of a queue that moved, plus — for EZ-flow, whose step
    from a window depends on that window — the nodes whose window
    changed last slot. Visiting only those gives the windows a full
    visit would, in the same slot: every other node's rule application
    is a no-op, as it was when it was last visited. ``set_routes``
    indexes the readers of every queue and schedules a full visit.
    """

    adapts = True
    #: DiffQ's window also reads the node's own backlog.
    reads_own_queue = False

    def set_routes(self, successors: Dict[NodeId, Tuple[NodeId, ...]]) -> None:
        """Index each queue's readers; the next update visits every node."""
        self.successors = successors
        readers: Dict[NodeId, List[NodeId]] = {}
        for node, nexts in successors.items():
            if self.reads_own_queue:
                readers.setdefault(node, []).append(node)
            for nxt in nexts:
                readers.setdefault(nxt, []).append(node)
        self.readers = readers
        self._full = True

    def _to_visit(self, moved, carried):
        """Routed nodes whose window this slot's queue moves can change."""
        if self._full:
            self._full = False
            return self.successors
        readers = self.readers
        visit = set(carried)
        for node in moved:
            if node in readers:
                visit.update(readers[node])
        return visit


class EZFlowCw(_BacklogRule):
    """Eq. (2) on graphs: react to the *successor's* aggregate backlog.

    A node with several next hops (multiple flows, multiple gateways)
    reacts to its most congested successor — doubling wins over
    halving, mirroring how the event-tier controller throttles a node
    whenever any downstream queue builds.
    """

    #: The paper's thresholds and window bounds (``EZFlowConfig``'s).
    b_min = _EZFLOW.b_min
    b_max = _EZFLOW.b_max
    mincw = _EZFLOW.mincw
    maxcw = _EZFLOW.maxcw

    def __init__(self):
        self.set_routes({})
        self._changed: List[NodeId] = []

    def update(self, cw, queues, moved) -> List[NodeId]:
        """Double/halve each node's window on its worst successor backlog."""
        successors = self.successors
        changed: List[NodeId] = []
        for node in self._to_visit(moved, self._changed):
            nexts = successors[node]
            # Most relays forward to one next hop: skip max()'s setup.
            b_next = (
                len(queues[nexts[0]])
                if len(nexts) == 1
                else max([len(queues[nxt]) for nxt in nexts])
            )
            window = cw[node]
            if b_next > self.b_max:
                new = min(window * 2, self.maxcw)
            elif b_next < self.b_min:
                new = max(window // 2, self.mincw)
            else:
                continue
            if new != window:
                cw[node] = new
                changed.append(node)
        self._changed = changed
        return changed


class DiffQCw(_BacklogRule):
    """Differential-backlog window classes (the DiffQ baseline).

    ``cwmin_for(differential)`` is the class lookup —
    :meth:`repro.baselines.diffq.DiffQConfig.cwmin_for` in the harness.
    The differential is taken against the node's *least* backlogged
    successor (the link a backpressure scheduler would pick).
    """

    reads_own_queue = True

    def __init__(self, cwmin_for: Callable[[float], int]):
        self.cwmin_for = cwmin_for
        self.set_routes({})

    def update(self, cw, queues, moved) -> List[NodeId]:
        """Set each node's window from its differential-backlog class."""
        successors = self.successors
        changed: List[NodeId] = []
        for node in self._to_visit(moved, ()):
            nexts = successors[node]
            least = (
                len(queues[nexts[0]])
                if len(nexts) == 1
                else min([len(queues[nxt]) for nxt in nexts])
            )
            window = self.cwmin_for(len(queues[node]) - least)
            if window != cw[node]:
                cw[node] = window
                changed.append(node)
        return changed


# -- flows ----------------------------------------------------------------


class SlottedFlow:
    """One unidirectional flow and its per-slot injection process.

    Kinds mirror :mod:`repro.traffic.workloads`: ``cbr`` accrues
    fractional packet credit per slot (deterministic), ``onoff`` gates
    the same credit behind exponential on/off phases (that module's
    ``MEAN_ON_S``/``MEAN_OFF_S``) drawn from the flow's own stream,
    ``windowed`` keeps ``window`` packets in flight
    (instant-ACK approximation: no reverse traffic, no retransmits, so
    delivery is in order by construction).
    """

    def __init__(
        self,
        flow_id: str,
        kind: str,
        src: NodeId,
        dst: NodeId,
        pkts_per_slot: float = 0.0,
        window: int = 0,
        stream=None,
    ):
        if kind not in ("cbr", "onoff", "windowed"):
            raise ValueError(f"unknown slotted workload kind {kind!r}")
        if kind in ("cbr", "onoff") and pkts_per_slot <= 0:
            raise ValueError("rate-driven kinds need pkts_per_slot > 0")
        if kind == "onoff" and stream is None:
            raise ValueError("onoff needs a phase stream")
        if kind == "windowed" and window < 1:
            raise ValueError("windowed needs window >= 1")
        self.flow_id = flow_id
        self.kind = kind
        self.src = src
        self.dst = dst
        self.pkts_per_slot = pkts_per_slot
        self.window = window
        self.stream = stream
        self.generated = 0
        self.delivered = 0
        self.lost = 0  # dropped in-network (tail drop, retry limit)
        self._credit = 0.0
        self._on = True  # onoff starts in a burst, like OnOffSource
        self._phase_end_s = None  # drawn lazily on first slot

    def inject(self, now_s: float) -> int:
        """Packets to enqueue at the source for the slot starting now."""
        if self.kind == "windowed":
            # A loss releases its window slot (the go-back-N sender would
            # retransmit; the instant-ACK approximation regenerates).
            in_flight = self.generated - self.delivered - self.lost
            return max(0, self.window - in_flight)
        if self.kind == "onoff":
            if self._phase_end_s is None:
                self._phase_end_s = self.stream.expovariate(1.0 / MEAN_ON_S)
            while now_s >= self._phase_end_s:
                self._on = not self._on
                mean = MEAN_ON_S if self._on else MEAN_OFF_S
                self._phase_end_s += self.stream.expovariate(1.0 / mean)
            if not self._on:
                return 0
        self._credit += self.pkts_per_slot
        whole = int(self._credit)
        self._credit -= whole
        return whole


@dataclass(frozen=True)
class SlotOutcome:
    """What one slot resolved to (the deterministic slot trace unit)."""

    slot: int
    transmitters: Tuple[NodeId, ...]  # in winner-selection order
    successes: Tuple[Tuple[NodeId, NodeId, str], ...]  # (sender, receiver, flow)
    delivered: Tuple[str, ...]  # flow ids that reached their destination


# -- the mesh random walk -------------------------------------------------


class SlottedMesh:
    """Slot-synchronous random walk of (queues, cw) over a mesh.

    ``connectivity`` is duck-typed: ``nodes()``, ``receivers_of(u)``,
    ``senders_received_at(v)``, optionally ``sensors_of(u)`` and
    ``is_active(u)`` (the churn mutation API). Live views are read
    every slot, so a mutated map takes effect at the next slot with no
    cache to refresh. Deference follows carrier sensing — the winner
    silences ``sensors_of(winner)`` when the map distinguishes sensing
    from reception (the event MAC's 550 m CSMA), falling back to
    reception adjacency (the paper's chain abstraction, where imperfect
    2-hop sensing is the point) — while *interference* is always rx
    adjacency at the receiver: a concurrent transmitter the receiver
    would decode collides, sense-only interferers are captured through.

    Routes arrive via :meth:`set_routes` as per-destination parent maps
    (the BFS trees meshgen installs); the caller re-invokes it after
    churn. ``loss`` is an optional ``(sender, receiver) -> model|None``
    lookup; a model's ``erased()`` is consulted once per
    otherwise-decodable transmission, exactly where the event channel
    consults :mod:`repro.phy.linkstate`.

    DCF's failure handling is retained at slot resolution: a failed
    transmission doubles the sender's *effective* window (binary
    exponential backoff above the rule-controlled base, capped at
    ``cwmax``) and after ``retry_limit`` consecutive failures the head
    packet is discarded — the two mechanisms behind the event tier's
    starvation unfairness and bounded queues.

    Queues are bounded (``buffer_cap`` packets per node, the event
    MAC's FIFO capacity): source injections beyond the cap tail-drop
    (still counted as generated, like the event sources), and a relayed
    packet arriving at a full queue is lost after the MAC-level success.

    Knowingly coarser than the event tier (the validation harness
    measures the cost): one packet per transmitter per slot at a fixed
    slot length, instant ACKs for windowed flows, one aggregate queue
    per node where the event MAC keeps one per (class, next hop), and a
    down node retains its queued packets until it returns.
    """

    #: DCF's window cap and retry limit, and the per-node queue capacity:
    #: the event tier's ``DcfConfig`` and FIFO defaults.
    cwmax = _DCF.cwmax
    retry_limit = _DCF.retry_limit
    buffer_cap = DEFAULT_CAPACITY

    def __init__(
        self,
        connectivity,
        flows: Sequence[SlottedFlow],
        rng,
        slot_s: float,
        initial_cw: Optional[Dict[NodeId, int]] = None,
        rule=None,
        loss: Optional[Callable[[NodeId, NodeId], object]] = None,
        active_filter: object = "auto",
    ):
        if slot_s <= 0:
            raise ValueError("slot length must be positive")
        self.connectivity = connectivity
        self.flows = list(flows)
        self.rng = rng
        self.slot_s = slot_s
        self.rule = rule if rule is not None else FixedCw()
        self.loss = loss
        self.defer_of = getattr(connectivity, "sensors_of", connectivity.receivers_of)
        self._nodes = sorted(connectivity.nodes())
        # ``active_filter``: "auto" consults the connectivity's churn
        # state (``is_active``) every slot; None asserts a static map
        # (no per-node check — the harness passes None when no churn is
        # scheduled); a callable pins the check explicitly.
        if active_filter == "auto":
            active_filter = getattr(connectivity, "is_active", None)
        self._is_active = active_filter
        # active_filter=None asserts the map never mutates, which also
        # means a planned next hop can never be a stale (churned) link.
        self._static = active_filter is None
        self.cw: Dict[NodeId, int] = dict.fromkeys(self._nodes, _DCF.cwmin)
        if initial_cw:
            self.cw.update(initial_cw)
        #: Consecutive failed attempts for the head packet, per node.
        self.retries: Dict[NodeId, int] = {node: 0 for node in self._nodes}
        #: Nodes currently in exponential backoff (retries > 0).
        self._backoff: set = set()
        #: node -> ``1.0 / effective window``, the winner draw's weight.
        #: Refreshed (:meth:`_reweigh`) only where a base window or a
        #: retry count changes, so a slot pays for what moved in it.
        self._weight: Dict[NodeId, float] = {
            node: 1.0 / window for node, window in self.cw.items()
        }
        self.dropped = 0
        #: FIFO of flow indexes, one entry per queued packet.
        self.queues: Dict[NodeId, deque] = {node: deque() for node in self._nodes}
        #: node -> (head flow index, next hop) for every node whose
        #: queue head is routable — the slot's contender map, maintained
        #: incrementally at the few queue-head changes per slot instead
        #: of rebuilt from scratch (slot cost tracks queue *churn*, not
        #: the backlogged-node count).
        self._planned: Dict[NodeId, Tuple[int, NodeId]] = {}
        #: Static rules (FixedCw) skip the per-slot rule call.
        self._adaptive = self.rule.adapts
        #: Every window stays at the default forever (``DcfConfig``
        #: checks it is a power of two): contention can take the exact
        #: uniform-draw fast path of :func:`sample_transmitters`
        #: whenever nobody is in backoff.
        self._uniform_cw = not self._adaptive and not initial_cw
        self.parents: Dict[NodeId, Dict[NodeId, NodeId]] = {}
        self._trees: List[Dict[NodeId, NodeId]] = [{} for _ in self.flows]
        self.successors: Dict[NodeId, Tuple[NodeId, ...]] = {}
        self.slot = 0

    @property
    def now_s(self) -> float:
        """Start time of the next slot."""
        return self.slot * self.slot_s

    def telemetry_snapshot(self) -> Dict[str, object]:
        """Read-only counters for mid-run telemetry sampling.

        Pure observation — touches no model state, so sampling cannot
        perturb the run.
        """
        return {
            "slot": self.slot,
            "backlog": sum(len(queue) for queue in self.queues.values()),
            "flows": {
                str(flow.flow_id): {
                    "generated": flow.generated,
                    "delivered": flow.delivered,
                    "lost": flow.lost,
                }
                for flow in self.flows
            },
        }

    def set_routes(self, parents: Dict[NodeId, Dict[NodeId, NodeId]]) -> None:
        """Install per-destination next-hop trees (re-invoke after churn).

        Also rebuilds the successor map the cw rules react to: for every
        flow, each node on its current path maps to the next hop it
        forwards over. A flow whose source the mutated graph cannot
        reach contributes nothing (its packets wait, like stale-route
        packets dying in MAC retries on the event tier).
        """
        self.parents = {dst: dict(tree) for dst, tree in parents.items()}
        # One tree reference per flow index: the hot loop resolves a
        # head packet's next hop with a single dict.get.
        self._trees = [self.parents.get(flow.dst, {}) for flow in self.flows]
        # New trees can reroute (or strand) any queued head packet, so
        # the contender map is rebuilt wholesale — the only place it is.
        trees = self._trees
        self._planned = {}
        for node, queue in self.queues.items():
            if queue:
                head = queue[0]
                next_hop = trees[head].get(node)
                if next_hop is not None:
                    self._planned[node] = (head, next_hop)
        successors: Dict[NodeId, set] = {}
        for flow in self.flows:
            tree = self.parents.get(flow.dst, {})
            node = flow.src
            hops = 0
            while node != flow.dst and node in tree and hops <= len(self._nodes):
                nxt = tree[node]
                successors.setdefault(node, set()).add(nxt)
                node = nxt
                hops += 1
        self.successors = {
            node: tuple(sorted(nxts)) for node, nxts in sorted(successors.items())
        }
        self.rule.set_routes(self.successors)

    def backlog(self) -> Dict[NodeId, int]:
        """Aggregate queued packets per node (all flows)."""
        return {node: len(queue) for node, queue in self.queues.items()}

    def flow_backlog(self) -> Dict[str, int]:
        """In-network packets per flow id, summed over every queue."""
        counts = {flow.flow_id: 0 for flow in self.flows}
        for queue in self.queues.values():
            for index in queue:
                counts[self.flows[index].flow_id] += 1
        return counts

    def _reweigh(self, node: NodeId) -> None:
        """Refresh ``node``'s weight after its base window or retries moved.

        The effective window is the rule-set base doubled per
        consecutive failure (binary exponential backoff), capped at
        ``cwmax`` — bases the rules already pushed above ``cwmax``
        (EZ-flow throttling) stay where the rule put them.
        """
        base = self.cw[node]
        effective = min(base << self.retries[node], max(self.cwmax, base))
        self._weight[node] = 1.0 / effective

    def step(self, record: bool = True) -> Optional[SlotOutcome]:
        """Inject, contend, resolve links, recurse buffers, adapt cw.

        ``record=False`` skips assembling the :class:`SlotOutcome`
        (returning None) — the harness loop drives thousands of slots
        per run and reads the mesh's counters afterwards, so building
        an unobserved trace unit per slot would be pure overhead.
        """
        now_s = self.slot * self.slot_s
        queues = self.queues
        flows = self.flows
        planned = self._planned
        trees = self._trees
        # Nodes whose queue was pushed or popped this slot (the rule's input).
        moved: List[NodeId] = []
        for index, flow in enumerate(flows):
            count = flow.inject(now_s)
            if count:
                flow.generated += count
                queue = queues[flow.src]
                fresh = not queue
                admitted = min(count, self.buffer_cap - len(queue))
                self.dropped += count - admitted
                flow.lost += count - admitted
                count = admitted
                if count > 0:
                    queue.extend([index] * count)
                    moved.append(flow.src)
                    if fresh:
                        next_hop = trees[index].get(flow.src)
                        if next_hop is not None:
                            planned[flow.src] = (index, next_hop)

        # Contenders: nodes with a routable head packet (the maintained
        # map), minus down nodes when a churn run asks for the check.
        is_active = self._is_active
        if is_active is None:
            contenders = planned
        else:
            contenders = {
                node: entry for node, entry in planned.items() if is_active(node)
            }

        # Contention runs on the effective windows' weights; with no
        # node in backoff the effective windows ARE the base windows.
        backoff = self._backoff
        transmitters = _draw_transmitters(
            sorted(contenders),
            None if self._uniform_cw and not backoff else self._weight,
            self.defer_of,
            self.rng,
        )
        receivers_of = self.connectivity.receivers_of

        # Link outcomes against the frozen transmitter set, then the
        # queue moves — resolution order cannot feed back into itself.
        # A lone transmitter on a static map cannot collide (no
        # half-duplex conflict, no interferer, no stale link), which is
        # the common slot under strong carrier sensing.
        multi = len(transmitters) > 1
        if multi:
            tx_set = set(transmitters)
            senders_received_at = self.connectivity.senders_received_at
        loss_of = self.loss
        static = self._static
        retries = self.retries
        successes: List[Tuple[NodeId, NodeId, str]] = []
        delivered: List[str] = []
        for sender in transmitters:
            head, receiver = contenders[sender]
            flow = flows[head]
            if multi:
                # Interferers: a decodable concurrent transmitter other
                # than the sender (set intersection stays in C).
                inter = tx_set & senders_received_at(receiver)
                collided = (
                    receiver in tx_set  # half-duplex receiver
                    or receiver not in receivers_of(sender)  # stale/churned link
                    or len(inter) > (sender in inter)
                )
            else:
                collided = not static and receiver not in receivers_of(sender)
            erased = False
            if not collided and loss_of is not None:
                model = loss_of(sender, receiver)
                erased = model is not None and model.erased()
            if collided or erased:
                retries[sender] += 1
                backoff.add(sender)
                if retries[sender] > self.retry_limit:
                    # DCF discard: the head packet exhausted its retries.
                    queue = queues[sender]
                    queue.popleft()
                    moved.append(sender)
                    if queue:
                        new_head = queue[0]
                        new_hop = trees[new_head].get(sender)
                        if new_hop is not None:
                            planned[sender] = (new_head, new_hop)
                        else:
                            del planned[sender]
                    else:
                        del planned[sender]
                    retries[sender] = 0
                    backoff.discard(sender)
                    self.dropped += 1
                    flow.lost += 1
                self._reweigh(sender)
                continue
            if sender in backoff:
                retries[sender] = 0
                backoff.discard(sender)
                self._reweigh(sender)
            queue = queues[sender]
            queue.popleft()
            moved.append(sender)
            if queue:
                new_head = queue[0]
                new_hop = trees[new_head].get(sender)
                if new_hop is not None:
                    planned[sender] = (new_head, new_hop)
                else:
                    del planned[sender]
            else:
                del planned[sender]
            if record:
                successes.append((sender, receiver, flow.flow_id))
            if receiver == flow.dst:
                flow.delivered += 1
                if record:
                    delivered.append(flow.flow_id)
            elif len(queues[receiver]) >= self.buffer_cap:
                self.dropped += 1  # full relay queue: lost after the MAC success
                flow.lost += 1
            else:
                relay_queue = queues[receiver]
                if not relay_queue:
                    next_hop = trees[head].get(receiver)
                    if next_hop is not None:
                        planned[receiver] = (head, next_hop)
                relay_queue.append(head)
                moved.append(receiver)

        if self._adaptive:
            for node in self.rule.update(self.cw, queues, moved):
                self._reweigh(node)
        self.slot += 1
        if not record:
            return None
        return SlotOutcome(
            slot=self.slot - 1,
            transmitters=tuple(transmitters),
            successes=tuple(successes),
            delivered=tuple(delivered),
        )

    def run(self, slots: int, on_slot: Optional[Callable[[SlotOutcome], None]] = None):
        """Advance ``slots`` steps, optionally observing each outcome."""
        if on_slot is None:
            for _ in range(slots):
                self.step(record=False)
            return
        for _ in range(slots):
            on_slot(self.step())
