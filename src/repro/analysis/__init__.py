"""Section 6: the discrete-time analytical model and stability proof.

The model (from [9], reused by the paper) maps a saturated K-hop chain
onto a random walk on the positive orthant of Z^{K-1}: one slot = one
transmission pattern. Per slot:

1. backlogged nodes contend; the contention resolves through the
   recursive *winner process* of :mod:`repro.analysis.activation`
   (winner chosen with probability proportional to 1/cw; the winner's
   1-hop neighbours defer; nodes hidden from every current transmitter
   keep contending among themselves);
2. a transmission on link i -> i+1 succeeds unless node i+2 — the only
   possible transmitter adjacent to the receiver — is also transmitting;
3. buffers update by ``b_i += z_{i-1} - z_i`` and EZ-flow updates each
   cw via the threshold rule f (Eq. 2).

For K = 4 the closed forms of Table 4 are implemented verbatim in
:mod:`repro.analysis.regions` and verified (in tests) to match the
winner process exactly. :mod:`repro.analysis.lyapunov` estimates the
k-step Foster drift of Theorem 1 and checks ergodicity numerically.
"""

from repro.analysis.activation import (
    activation_distribution,
    sample_activation,
    successful_links,
)
from repro.analysis.slotted import (
    SlottedChainModel,
    EZFlowRule,
    FixedCwRule,
    ModelConfig,
)
from repro.analysis.regions import (
    REGIONS_4HOP,
    region_of,
    table4_distribution,
)
from repro.analysis.lyapunov import (
    sum_lyapunov,
    k_step_drift,
    exact_k_step_drift,
    verify_theorem1,
    DriftReport,
)

__all__ = [
    "activation_distribution",
    "sample_activation",
    "successful_links",
    "SlottedChainModel",
    "EZFlowRule",
    "FixedCwRule",
    "ModelConfig",
    "REGIONS_4HOP",
    "region_of",
    "table4_distribution",
    "sum_lyapunov",
    "k_step_drift",
    "exact_k_step_drift",
    "verify_theorem1",
    "DriftReport",
]
