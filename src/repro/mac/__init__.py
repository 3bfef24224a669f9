"""IEEE 802.11 DCF medium access control.

Implements CSMA/CA with binary exponential backoff, DIFS/SIFS/EIFS
deferral, MAC-level acknowledgements with retransmission, receiver-side
duplicate filtering, and — the hook EZ-flow needs — one independent
transmit entity per queue, each with its own adjustable ``CWmin``
(mirroring 802.11e's per-queue contention parameters).
"""

from repro.mac.frames import Frame, FrameKind
from repro.mac.queues import FifoQueue, QueueDropError
from repro.mac.dcf import Dcf, DcfConfig, TxEntity

__all__ = [
    "Frame",
    "FrameKind",
    "FifoQueue",
    "QueueDropError",
    "Dcf",
    "DcfConfig",
    "TxEntity",
]
