"""Reconfigurable-datacenter substrate: traffic, single- and multi-source networks."""

from repro import _lazy_exports

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

#: Each public name's defining module (see :func:`repro._lazy_exports`).
_EXPORTS = {
    "repro.network.multi_source": ("MultiSourceNetwork",),
    "repro.network.single_source": ("SingleSourceTreeNetwork",),
    "repro.network.topology": (
        "degree_statistics",
        "multi_source_topology",
        "single_source_topology",
        "theoretical_degree_bound",
    ),
    "repro.network.traffic": ("INTERLEAVINGS", "TrafficSpec", "iter_interleaving"),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
