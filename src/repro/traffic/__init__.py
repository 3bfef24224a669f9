"""Traffic generation: CBR (the paper's workload), saturated and on/off
sources, and declarative workload mixes over arbitrary flow sets."""

from repro.traffic.onoff import OnOffSource
from repro.traffic.sources import CbrSource, SaturatedSource
from repro.traffic.workloads import (
    WORKLOAD_KINDS,
    AttachedFlow,
    WorkloadSpec,
    attach_workload,
)

__all__ = [
    "CbrSource",
    "SaturatedSource",
    "OnOffSource",
    "WORKLOAD_KINDS",
    "AttachedFlow",
    "WorkloadSpec",
    "attach_workload",
]
