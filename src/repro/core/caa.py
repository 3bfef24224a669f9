"""Channel Access Adaptation (CAA), Section 3.3 / Algorithm 1.

Consumes raw BOE samples in batches of ``sample_window`` (50 in the
paper), averages them into ``b̄_{k+1}``, and applies the threshold policy:

* average above ``b_max``  -> overutilisation signal: bump ``countup``;
  once ``countup >= log2(cw)``, double ``cw`` (multiplicative decrease of
  channel access probability).
* average below ``b_min``  -> underutilisation signal: bump
  ``countdown``; once ``countdown >= countdown_base - log2(cw)``, halve
  ``cw``.
* in between -> desired regime: reset both counters, keep ``cw``.

The cw-dependent counter thresholds are the paper's inter-flow fairness
device: a node already using a *large* window reacts quickly to
underutilisation and sluggishly to overutilisation, and vice versa, so
contending nodes converge instead of oscillating together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.config import EZFlowConfig


@dataclass
class CaaDecision:
    """Outcome of one 50-sample evaluation, passed to each decision callback."""

    average: float
    old_cw: int
    new_cw: int
    countup: int
    countdown: int

    @property
    def changed(self) -> bool:
        return self.new_cw != self.old_cw


class ChannelAccessAdapter:
    """The CAA state machine for one (node, successor) queue."""

    def __init__(
        self,
        config: EZFlowConfig,
        set_cwmin: Callable[[int], None],
        initial_cw: Optional[int] = None,
    ):
        self.config = config
        self._set_cwmin = set_cwmin
        self.cw = initial_cw if initial_cw is not None else config.mincw
        if self.cw < 1 or self.cw & (self.cw - 1):
            raise ValueError("initial cw must be a positive power of two")
        self.countup = 0
        self.countdown = 0
        self._samples: List[int] = []
        self.decision_callbacks: List[Callable[[CaaDecision], None]] = []
        self._set_cwmin(self.cw)

    # -- sample intake -----------------------------------------------------

    def on_sample(self, b_successor: int) -> Optional[CaaDecision]:
        """Feed one raw BOE sample; decides after ``sample_window`` samples."""
        self._samples.append(b_successor)
        if len(self._samples) < self.config.sample_window:
            return None
        average = sum(self._samples) / len(self._samples)
        self._samples.clear()
        return self._decide(average)

    # -- Algorithm 1, CAA branch -----------------------------------------

    def _decide(self, average: float) -> CaaDecision:
        cfg = self.config
        old_cw = self.cw
        log_cw = int(math.log2(self.cw))
        if average > cfg.b_max:
            self.countdown = 0
            self.countup += 1
            if self.countup >= max(1, log_cw):
                self.cw = min(self.cw * 2, cfg.maxcw)
                self.countup = 0
        elif average < cfg.b_min:
            self.countup = 0
            self.countdown += 1
            if self.countdown >= max(1, cfg.countdown_base - log_cw):
                self.cw = max(self.cw // 2, cfg.mincw)
                self.countdown = 0
        else:
            self.countup = 0
            self.countdown = 0
        if self.cw != old_cw:
            self._set_cwmin(self.cw)
        decision = CaaDecision(
            average=average,
            old_cw=old_cw,
            new_cw=self.cw,
            countup=self.countup,
            countdown=self.countdown,
        )
        for callback in self.decision_callbacks:
            callback(decision)
        return decision
