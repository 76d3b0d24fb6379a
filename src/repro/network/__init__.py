"""Reconfigurable-datacenter substrate: traffic, single- and multi-source networks."""

from repro.network.multi_source import MultiSourceNetwork
from repro.network.single_source import SingleSourceTreeNetwork
from repro.network.topology import (
    degree_statistics,
    multi_source_topology,
    single_source_topology,
    theoretical_degree_bound,
)
from repro.network.traffic import INTERLEAVINGS, TrafficSpec, iter_interleaving

__all__ = [
    "INTERLEAVINGS",
    "MultiSourceNetwork",
    "SingleSourceTreeNetwork",
    "TrafficSpec",
    "iter_interleaving",
    "degree_statistics",
    "multi_source_topology",
    "single_source_topology",
    "theoretical_degree_bound",
]
