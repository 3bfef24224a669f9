"""The slotted-time random walk: buffer and cw dynamics (Eqs. 2-4).

``SlottedChainModel`` simulates the K-hop chain at slot resolution:
each step draws an activation vector from the winner process, applies
``b_i += z_{i-1} - z_i``, and lets the contention-window rule update
``cw``. Two rules are provided:

* :class:`EZFlowRule` — the paper's f(cw_i, b_{i+1}): double above
  ``b_max``, halve below ``b_min``, clamp to [mincw, maxcw], with the
  thresholds and bounds of :class:`~repro.core.config.EZFlowConfig`;
* :class:`FixedCwRule` — standard 802.11: windows never change.

The model exposes the state pieces the stability analysis needs: region
labels, Lyapunov values, buffer trajectories.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.activation import sample_activation
from repro.core.config import EZFlowConfig

INF = float("inf")

#: EZ-flow's thresholds and window bounds (the paper's defaults).
_EZFLOW = EZFlowConfig()


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the slotted model: the chain's hop count.

    Buffers are unbounded, as Theorem 1's stability definition needs.
    """

    hops: int = 4

    def __post_init__(self):
        if self.hops < 2:
            raise ValueError("need at least 2 hops")


class EZFlowRule:
    """Eq. (2): cw_i(n+1) = f(cw_i(n), b_{i+1}(n))."""

    def __init__(self, config: ModelConfig):
        self.config = config

    def update(self, cw: List[int], buffers: List[float]) -> None:
        """Apply f(cw_i, b_{i+1}) to every node's window in place."""
        cfg = _EZFLOW
        hops = self.config.hops
        for i in range(hops):
            # b_{i+1}: the destination's buffer (i+1 == hops) is always 0.
            b_next = buffers[i + 1] if i + 1 < hops else 0.0
            if b_next > cfg.b_max:
                cw[i] = min(cw[i] * 2, cfg.maxcw)
            elif b_next < cfg.b_min:
                cw[i] = max(cw[i] // 2, cfg.mincw)


class FixedCwRule:
    """Standard 802.11: contention windows are never adapted."""

    def update(self, cw: List[int], buffers: List[float]) -> None:
        """No-op."""


class SlottedChainModel:
    """Random walk of (b, cw) for a saturated K-hop chain."""

    def __init__(
        self,
        config: Optional[ModelConfig] = None,
        rule=None,
        seed: int = 0,
        initial_buffers: Optional[Sequence[float]] = None,
        initial_cw: Optional[Sequence[int]] = None,
    ):
        self.config = config or ModelConfig()
        self.rule = rule if rule is not None else EZFlowRule(self.config)
        self.rng = random.Random(seed)
        hops = self.config.hops
        # buffers[0] is the saturated source; buffers[1..hops-1] relays.
        self.buffers: List[float] = [INF] + [0.0] * (hops - 1)
        if initial_buffers is not None:
            if len(initial_buffers) != hops - 1:
                raise ValueError("initial_buffers must cover relays 1..K-1")
            self.buffers[1:] = [float(b) for b in initial_buffers]
        self.cw: List[int] = [_EZFLOW.mincw] * hops
        if initial_cw is not None:
            if len(initial_cw) != hops:
                raise ValueError("initial_cw must cover nodes 0..K-1")
            self.cw = [int(c) for c in initial_cw]
        self.slot = 0
        self.delivered = 0
        self.last_pattern: Tuple[int, ...] = tuple([0] * hops)

    # -- state views ------------------------------------------------------

    @property
    def relay_buffers(self) -> Tuple[float, ...]:
        return tuple(self.buffers[1:])

    def lyapunov(self) -> float:
        """h(b) = sum of relay buffers (the Theorem 1 function)."""
        return float(sum(self.buffers[1:]))

    # -- dynamics -------------------------------------------------------------

    def step(self) -> Tuple[int, ...]:
        """Advance one slot; returns the activation vector drawn."""
        hops = self.config.hops
        pattern = sample_activation(self.buffers, self.cw, hops, self.rng)
        # Eq. (3): b_i += z_{i-1} - z_i for the relays.
        for i in range(1, hops):
            self.buffers[i] = max(0.0, self.buffers[i] + pattern[i - 1] - pattern[i])
        if pattern[hops - 1]:
            self.delivered += 1
        # Eq. (2): windows react to the *new* buffer state.
        self.rule.update(self.cw, self.buffers)
        self.slot += 1
        self.last_pattern = pattern
        return pattern

    def run(self, slots: int, record_every: int = 0) -> List[Tuple[int, Tuple[float, ...]]]:
        """Run ``slots`` steps; optionally record relay buffers periodically."""
        trajectory: List[Tuple[int, Tuple[float, ...]]] = []
        for _ in range(slots):
            self.step()
            if record_every and self.slot % record_every == 0:
                trajectory.append((self.slot, self.relay_buffers))
        return trajectory
