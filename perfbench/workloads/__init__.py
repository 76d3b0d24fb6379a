"""The benchmark's workloads, by name."""

from perfbench.workloads.campaign_pool import CampaignPool
from perfbench.workloads.live_serve import LiveServe
from perfbench.workloads.multisource import MultiSource
from perfbench.workloads.paper_sweep import PaperSweep

WORKLOADS = {
    workload.name: workload
    for workload in (PaperSweep, MultiSource, LiveServe, CampaignPool)
}

__all__ = ["WORKLOADS"]
