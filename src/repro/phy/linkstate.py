"""Seeded per-link loss processes: iid erasures and Gilbert-Elliott bursts.

The channel's static ``set_link_loss`` draws one erasure per decodable
frame from a *shared* stream — fine for calibration, but memoryless and
coupled across links. This module provides *stateful* per-link models,
each drawing from its own named RNG stream, so the loss sequence of a
link is a pure function of ``(master seed, sender, receiver)``:
independent of every other link, of traffic on other links, and of the
channel's shared erasure stream (installing models never perturbs
lossless-path draw order).

Two model kinds:

* ``iid`` — independent Bernoulli erasures at probability ``p`` per
  decodable frame (the classic memoryless lossy link);
* ``ge`` — the two-state Gilbert-Elliott burst-loss chain: a Good and a
  Bad state with per-frame transition probabilities ``p_gb`` (G->B) and
  ``p_bg`` (B->G), and per-state erasure probabilities ``loss_good``
  (default 0) / ``loss_bad`` (default 1 — the classic Gilbert model).
  Mean burst length is ``1/p_bg`` frames; long-run loss is
  ``loss_bad * p_gb / (p_gb + p_bg)`` (plus the good-state term).

A model is consulted once per otherwise-decodable frame end at the
receiver — exactly where the channel consults its static probability —
so loss composes with (and is masked by) collisions and capture, the
same semantics the Nessi per-link error processes use.

CLI specs (the meshgen ``loss`` axis) are colon-separated so they
survive the sweep CLI's comma-splitting of grid values::

    iid:0.05                  5 % iid frame erasures on every link
    ge:0.02:0.25              bursty: enter Bad 2 %/frame, leave 25 %/frame
    ge:0.02:0.25:0.5          ... losing only half the Bad-state frames
    ge:0.02:0.25:0.5:0.01     ... plus 1 % residual Good-state loss
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

NodeId = Hashable

LOSS_KINDS = ("iid", "ge")

#: Stream-name prefix for per-link model streams (one per directed link).
STREAM_PREFIX = "phy.linkstate"


class LossSpecError(ValueError):
    """A loss-model spec string could not be parsed."""


def link_stream_name(sender: NodeId, receiver: NodeId) -> str:
    """The canonical RNG stream name of the directed link sender->receiver."""
    return f"{STREAM_PREFIX}.{sender!r}->{receiver!r}"


class LinkLossModel:
    """Interface: one stateful loss process bound to one directed link."""

    __slots__ = ()

    def erased(self) -> bool:
        """Advance the process one frame; True when this frame is lost."""
        raise NotImplementedError


class BernoulliLoss(LinkLossModel):
    """Independent per-frame erasures at a fixed probability."""

    __slots__ = ("_random", "p")

    def __init__(self, rng, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        self._random = rng.random
        self.p = float(p)

    def erased(self) -> bool:
        return self._random() < self.p


class GilbertElliottLoss(LinkLossModel):
    """Two-state Markov burst loss (Gilbert-Elliott).

    Starts in the Good state. Per ``erased()`` call: draw the erasure
    under the current state, then draw the state transition — two draws
    per frame always, so the consumed stream position is a pure function
    of the frame count (never of the loss outcomes).
    """

    __slots__ = ("_random", "p_gb", "p_bg", "loss_good", "loss_bad", "bad")

    def __init__(
        self,
        rng,
        p_gb: float,
        p_bg: float,
        loss_bad: float = 1.0,
        loss_good: float = 0.0,
    ):
        for name, value in (
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("loss_bad", loss_bad),
            ("loss_good", loss_good),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        self._random = rng.random
        self.p_gb = float(p_gb)
        self.p_bg = float(p_bg)
        self.loss_bad = float(loss_bad)
        self.loss_good = float(loss_good)
        self.bad = False

    def erased(self) -> bool:
        random = self._random
        lost = random() < (self.loss_bad if self.bad else self.loss_good)
        if self.bad:
            if random() < self.p_bg:
                self.bad = False
        elif random() < self.p_gb:
            self.bad = True
        return lost


@dataclass(frozen=True)
class LossSpec:
    """A parsed loss-model recipe, instantiable per link."""

    kind: str  # "iid" | "ge"
    p: float = 0.0  # iid: erasure probability; ge: p_gb
    p_bg: float = 0.0
    loss_bad: float = 1.0
    loss_good: float = 0.0

    def build(self, rng) -> LinkLossModel:
        """Instantiate the model on ``rng`` (one dedicated link stream)."""
        if self.kind == "iid":
            return BernoulliLoss(rng, self.p)
        return GilbertElliottLoss(
            rng, self.p, self.p_bg, loss_bad=self.loss_bad, loss_good=self.loss_good
        )


def parse_loss_spec(text: str) -> LossSpec:
    """Parse a CLI loss spec (see the module docstring for the grammar)."""
    parts = [p.strip() for p in str(text).strip().split(":")]
    kind = parts[0]
    if kind not in LOSS_KINDS:
        raise LossSpecError(
            f"unknown loss model {kind!r}; known: {', '.join(LOSS_KINDS)}"
        )
    if any(p == "" for p in parts[1:]):
        raise LossSpecError(f"loss spec {text!r}: empty field")
    try:
        values = [float(p) for p in parts[1:]]
    except ValueError as error:
        raise LossSpecError(f"loss spec {text!r}: non-numeric parameter") from error
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise LossSpecError(f"loss spec {text!r}: probabilities must be in [0, 1]")
    if kind == "iid":
        if len(values) != 1:
            raise LossSpecError(f"loss spec {text!r}: iid takes exactly one probability")
        return LossSpec(kind="iid", p=values[0])
    if not 2 <= len(values) <= 4:
        raise LossSpecError(
            f"loss spec {text!r}: ge takes p_gb:p_bg[:loss_bad[:loss_good]]"
        )
    return LossSpec(
        kind="ge",
        p=values[0],
        p_bg=values[1],
        loss_bad=values[2] if len(values) > 2 else 1.0,
        loss_good=values[3] if len(values) > 3 else 0.0,
    )


class LinkModels(dict):
    """A per-link model table keyed by ``(sender, receiver)``.

    It answers :func:`apply_loss_models` under the same two method names
    as :class:`~repro.phy.channel.Channel`, which keeps the event tier's
    models; the slotted tier, having no channel, keeps them here.
    """

    def link_model(self, sender: NodeId, receiver: NodeId):
        """The installed model of the directed link, or ``None``."""
        return self.get((sender, receiver))

    def set_link_model(self, sender: NodeId, receiver: NodeId, model) -> None:
        """Install ``model`` on the directed link sender->receiver."""
        self[(sender, receiver)] = model


def apply_loss_models(links, connectivity, spec: "LossSpec | str", rng) -> int:
    """Install one model instance per directed reception edge.

    ``links`` holds the models: a :class:`~repro.phy.channel.Channel`
    or a :class:`LinkModels` table. Links are enumerated in repr-sorted
    (sender, receiver) order over ``connectivity`` and each model gets
    its own :func:`link_stream_name` stream from the registry ``rng``,
    so the whole configuration — and every link's loss sequence — is a
    pure function of the master seed. Returns the number of links
    *newly* configured. Sense-only edges carry no model: loss is only
    ever consulted where a frame is decodable.

    Incremental: links that already carry a model keep it (preserving
    the model's state and stream position), so churn re-applies this
    after every topology mutation — a mobility step or an up event that
    creates reception edges gets them lossy immediately, while a link
    that disappears and reappears resumes its original loss process.
    """
    if isinstance(spec, str):
        spec = parse_loss_spec(spec)
    configured = 0
    for sender in sorted(connectivity.nodes(), key=repr):
        for receiver in sorted(connectivity.receivers_of(sender), key=repr):
            if links.link_model(sender, receiver) is not None:
                continue
            model = spec.build(rng.stream(link_stream_name(sender, receiver)))
            links.set_link_model(sender, receiver, model)
            configured += 1
    return configured
