"""EZ-flow: the paper's primary contribution.

Two cooperating modules per (node, successor) pair:

* :class:`~repro.core.boe.BufferOccupancyEstimator` — passively infers
  the successor's buffer occupancy from overheard forwarded frames,
  without any message passing (Section 3.2).
* :class:`~repro.core.caa.ChannelAccessAdapter` — turns the averaged
  estimates into CWmin adaptations via a threshold MIMD policy with
  fairness-biased hysteresis counters (Section 3.3, Algorithm 1).

:class:`~repro.core.controller.EZFlowController` wires one (BOE, CAA)
pair onto every forwarding/source queue of a node stack.
"""

from repro.core.boe import BufferOccupancyEstimator
from repro.core.caa import ChannelAccessAdapter
from repro.core.config import EZFlowConfig
from repro.core.controller import EZFlowController, attach_ezflow
from repro.core.ratecaa import (
    RateCaa,
    RateEZFlowController,
    RateScheduler,
    attach_rate_ezflow,
)

__all__ = [
    "BufferOccupancyEstimator",
    "ChannelAccessAdapter",
    "EZFlowConfig",
    "EZFlowController",
    "attach_ezflow",
    "RateCaa",
    "RateEZFlowController",
    "RateScheduler",
    "attach_rate_ezflow",
]
