"""Flow descriptors and end-to-end accounting.

A flow is a directed source->destination communication (Section 3.1).
The ``Flow`` object owns delivery statistics: per-packet delays and a
delivery time series from which windowed throughput is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional

from repro.net.packet import Packet
from repro.sim.tracing import TimeSeries
from repro.sim.units import US_PER_S


@dataclass
class Flow:
    """One unidirectional flow plus its delivery accounting."""

    flow_id: Hashable
    src: Hashable
    dst: Hashable
    start_us: int = 0
    stop_us: Optional[int] = None

    generated: int = 0
    delivered: int = 0
    delivered_bits: TimeSeries = field(default_factory=TimeSeries)
    delays: TimeSeries = field(default_factory=TimeSeries)
    path_delays: TimeSeries = field(default_factory=TimeSeries)

    def active_at(self, now: int) -> bool:
        """True when the flow generates traffic at tick ``now``."""
        if now < self.start_us:
            return False
        return self.stop_us is None or now < self.stop_us

    def note_generated(self) -> None:
        """Count one packet handed to the source stack."""
        self.generated += 1

    def note_delivered(self, packet: Packet, now: int) -> None:
        """Record an end-to-end delivery (stamps the packet, updates series)."""
        if packet.flow_id != self.flow_id:
            raise ValueError("packet does not belong to this flow")
        packet.delivered_at = now
        self.delivered += 1
        self.delivered_bits.append(now, packet.size_bytes * 8)
        self.delays.append(now, (now - packet.created_at) / US_PER_S)
        if packet.first_tx_at is not None:
            self.path_delays.append(now, (now - packet.first_tx_at) / US_PER_S)

    # -- metrics ------------------------------------------------------------

    def throughput_bps(self, start_us: int, end_us: int) -> float:
        """Mean delivered rate in bits/s over [start_us, end_us)."""
        if end_us <= start_us:
            return 0.0
        bits = self.delivered_bits.sum_in(start_us, end_us)
        return bits / ((end_us - start_us) / US_PER_S)

    def throughput_series_kbps(self, start_us: int, end_us: int, bin_s: float = 10.0):
        """Windowed throughput in kb/s, as (time_s, kbps) pairs (Fig 6)."""
        bins = self.delivered_bits.binned_rate(start_us, end_us, int(bin_s * US_PER_S))
        return [(t, rate / 1000.0) for t, rate in bins]

    def mean_delay_s(self, start_us: int, end_us: int) -> float:
        """Mean end-to-end delay (s) of packets delivered in the window."""
        window = self.delays.window(start_us, end_us)
        return window.mean()

    def mean_path_delay_s(self, start_us: int, end_us: int) -> float:
        """Mean network-path delay (s): first hop -> delivery.

        This isolates the relay delay the MAC-layer flow control
        governs; a saturating CBR application keeps its own source
        buffer permanently full, which adds a constant queueing offset
        the end-to-end number includes.
        """
        window = self.path_delays.window(start_us, end_us)
        return window.mean()

    def path_delay_series_s(self, start_us: int, end_us: int):
        """Per-packet (delivery_time_s, path_delay_s) pairs."""
        window = self.path_delays.window(start_us, end_us)
        return [(t / US_PER_S, d) for t, d in window]

    def delay_series_s(self, start_us: int, end_us: int):
        """Per-packet (delivery_time_s, delay_s) pairs (Figs 7, 10)."""
        window = self.delays.window(start_us, end_us)
        return [(t / US_PER_S, d) for t, d in window]
