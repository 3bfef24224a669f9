"""On/off bursty traffic for the traffic-matrix adaptivity ablations.

The paper's scenario schedules toggle whole flows on and off; this
source toggles *within* one flow on exponential on/off periods, which
stresses EZ-flow's countup/countdown hysteresis with load changes
faster than flow arrivals.
"""

from __future__ import annotations

from repro.net.flow import Flow
from repro.net.node import NodeStack
from repro.net.packet import DEFAULT_PACKET_BYTES
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import US_PER_S, seconds
from repro.traffic.sources import _SourceBase


class OnOffSource(_SourceBase):
    """CBR bursts alternating with silence (exponential period lengths)."""

    def __init__(
        self,
        engine: Engine,
        node: NodeStack,
        flow: Flow,
        rate_bps: float,
        rng: RngRegistry,
        mean_on_s: float = 20.0,
        mean_off_s: float = 10.0,
    ):
        super().__init__(engine, node, flow)
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if mean_on_s <= 0 or mean_off_s <= 0:
            raise ValueError("period means must be positive")
        self.interval_us = max(1, int(round(DEFAULT_PACKET_BYTES * 8 * US_PER_S / rate_bps)))
        self.mean_on_us = seconds(mean_on_s)
        self.mean_off_us = seconds(mean_off_s)
        self.rng = rng.stream(f"traffic.onoff.{flow.flow_id}")
        self._on = True
        # The first on-period is sampled lazily on the first tick: a
        # phase end of 0 would make that tick toggle straight to OFF and
        # silence the source for ~mean_off_s, despite bursts starting on.
        self._phase_ends_at: int | None = None

    def _tick(self) -> None:
        now = self.engine.now
        if self.flow.stop_us is not None and now >= self.flow.stop_us:
            return
        if self._phase_ends_at is None:
            mean = self.mean_on_us
            self._phase_ends_at = now + max(1, int(self.rng.expovariate(1.0 / mean)))
        elif now >= self._phase_ends_at:
            self._on = not self._on
            mean = self.mean_on_us if self._on else self.mean_off_us
            self._phase_ends_at = now + max(1, int(self.rng.expovariate(1.0 / mean)))
        if self._on and self.flow.active_at(now):
            self._emit()
        self.engine.post(self.interval_us, self._tick)

    @property
    def is_on(self) -> bool:
        return self._on
