"""Multi-source self-adjusting network composed of per-source trees.

The introduction of the paper notes that single-source tree networks "can be
combined to form self-adjusting networks which serve multiple sources and whose
topology can be an arbitrary degree-bounded graph".  This module implements
that composition for the datacenter setting: every source node owns a
single-source self-adjusting tree over its destinations; the union of all tree
edges (plus the source-to-root attachment links) forms the reconfigurable
network topology, whose degree stays bounded because each node appears in each
tree at most once and each tree has maximum degree 3 (plus one link for the
source attachment).

The class routes a :class:`repro.network.traffic.TrafficTrace` through the
per-source trees, accumulates the self-adjustment costs, and reports per-source
and network-wide statistics.  It is the substrate used by the datacenter
example and by the multi-source benchmark.  Network-plan trials use
:func:`serve_source_by_source` instead, which keeps one tree alive at a time;
both build their trees with :func:`source_tree` and report with
:func:`source_columns`, so the two cannot drift.
"""

from __future__ import annotations

import numbers
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.algorithms.registry import AlgorithmSpec
from repro.core.cost import RequestCost
from repro.exceptions import AlgorithmError
from repro.network.single_source import SingleSourceTreeNetwork
from repro.network.traffic import TrafficSpec, TrafficTrace
from repro.workloads.base import check_chunk_size
from repro.workloads.spec import DEFAULT_CHUNK_SIZE

__all__ = [
    "MultiSourceNetwork",
    "serve_source_by_source",
    "source_columns",
    "source_tree",
]

#: Columns of :meth:`MultiSourceNetwork.per_source_columns`, in order.
PER_SOURCE_COLUMNS = (
    "source",
    "n_requests",
    "total_access_cost",
    "total_adjustment_cost",
    "total_cost",
)

#: Offset of a source tree's algorithm seed from its placement seed.
ALGORITHM_SEED_OFFSET = 100_000


def source_tree(
    n_nodes: int,
    source: int,
    algorithm: Union[str, AlgorithmSpec],
    base_seed: int,
    keep_records: bool = False,
) -> SingleSourceTreeNetwork:
    """Build ``source``'s tree of an ``n_nodes``-node network seeded by ``base_seed``.

    The tree's seeds depend only on the source id: placement
    ``base_seed + source`` and algorithm randomness
    ``base_seed + ALGORITHM_SEED_OFFSET + source``.
    """
    return SingleSourceTreeNetwork(
        source=source,
        n_nodes=n_nodes,
        algorithm=algorithm,
        placement_seed=base_seed + source,
        algorithm_seed=base_seed + ALGORITHM_SEED_OFFSET + source,
        keep_records=keep_records,
    )


def source_columns(summaries: Iterable[Dict[str, float]]) -> Dict[str, List[float]]:
    """Per-source tree cost summaries as parallel :data:`PER_SOURCE_COLUMNS`.

    The columnar transport format of network-trial results (mirroring the
    columnar record ledger): one list per column, one row per summary in
    the order given.  Workers return these instead of nested per-source
    dictionaries, so a paper-scale fan-out ships five flat lists per trial
    rather than thousands of dict objects.
    """
    columns: Dict[str, List[float]] = {name: [] for name in PER_SOURCE_COLUMNS}
    for summary in summaries:
        for name, column in columns.items():
            column.append(summary[name])
    return columns


def serve_source_by_source(
    traffic: TrafficSpec,
    requests_per_source: int,
    algorithm: Union[str, AlgorithmSpec],
    base_seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Dict[str, List[float]]:
    """Serve a traffic spec one source at a time; return :func:`source_columns`.

    Each source, in ascending order, gets a fresh :func:`source_tree`, is
    fed its stream from :meth:`TrafficSpec.iter_source_streams` through
    the tree's batch dispatch, and leaves only its cost summary behind, so
    at most one tree is alive.  The per-source trees are independent, so
    the rows equal a :class:`MultiSourceNetwork` serving
    ``traffic.iter_trace`` under any interleaving, without drawing,
    merging or splitting one.
    """
    return source_columns(
        _serve_stream(
            source_tree(traffic.n_nodes, source, algorithm, base_seed), chunks
        )
        for source, chunks in traffic.iter_source_streams(
            requests_per_source, chunk_size
        )
    )


def _serve_stream(
    tree: SingleSourceTreeNetwork, chunks: Iterable[Sequence[int]]
) -> Dict[str, float]:
    """Serve destination chunks on ``tree``; return its cost summary.

    The tree is referenced only by this frame, so it is freed on return.
    """
    for destinations in chunks:
        tree.serve_batch(destinations)
    return tree.cost_summary()


class MultiSourceNetwork:
    """A reconfigurable network built from one self-adjusting tree per source.

    Parameters
    ----------
    n_nodes:
        Number of network nodes; every node can be a destination and the nodes
        listed in ``sources`` additionally act as sources.
    sources:
        The source node identifiers, distinct integers in ``[0, n_nodes)``;
        by default every node is a source.
    algorithm:
        Registry name — or :class:`~repro.algorithms.registry.AlgorithmSpec`,
        the form :class:`repro.plans.NetworkPlan` payloads ship — of the tree
        algorithm used by every source tree.
    base_seed:
        Base seed; every source tree is built by :func:`source_tree` from
        seeds that depend only on ``base_seed`` and the source id, so the
        network is fully reproducible.
    keep_records:
        Whether per-request cost records are retained inside each source tree.
    """

    def __init__(
        self,
        n_nodes: int,
        sources: Optional[Sequence[int]] = None,
        algorithm: Union[str, AlgorithmSpec] = "rotor-push",
        base_seed: int = 0,
        keep_records: bool = False,
    ) -> None:
        if n_nodes < 2:
            raise AlgorithmError("a multi-source network needs at least two nodes")
        self.n_nodes = n_nodes
        self.algorithm = AlgorithmSpec.coerce(algorithm)
        self.algorithm_name = self.algorithm.name
        self.base_seed = base_seed
        self.keep_records = keep_records
        source_list = list(sources) if sources is not None else list(range(n_nodes))
        if not source_list:
            raise AlgorithmError("a multi-source network needs at least one source")
        for source in source_list:
            if type(source) is bool or not isinstance(source, numbers.Integral):
                raise AlgorithmError(f"source {source!r} is not an integer node identifier")
            if not 0 <= source < n_nodes:
                raise AlgorithmError(f"source {source} outside [0, {n_nodes})")
        source_list = [int(source) for source in source_list]
        repeated = sorted(
            source for source, count in Counter(source_list).items() if count > 1
        )
        if repeated:
            raise AlgorithmError(f"sources {repeated} are listed more than once")
        self._trees: Dict[int, SingleSourceTreeNetwork] = {
            source: source_tree(n_nodes, source, self.algorithm, base_seed, keep_records)
            for source in source_list
        }

    # -------------------------------------------------------------- properties

    @property
    def sources(self) -> List[int]:
        """The source node identifiers."""
        return list(self._trees)

    def tree_of(self, source: int) -> SingleSourceTreeNetwork:
        """Return the single-source tree owned by ``source``."""
        try:
            return self._trees[source]
        except KeyError:
            raise AlgorithmError(f"node {source} is not a source of this network") from None

    # ----------------------------------------------------------------- serving

    def serve(self, source: int, destination: int) -> RequestCost:
        """Serve one communication request on the owning source tree."""
        return self.tree_of(source).serve(destination)

    def serve_trace(
        self,
        trace: TrafficTrace,
        chunk_size: Optional[int] = None,
    ) -> Dict[str, float]:
        """Route a whole traffic trace and return network-wide cost statistics.

        The trace is split into its per-source destination streams (each
        source's requests keep their relative order) and every stream flows
        through the owning tree's ``serve_batch`` dispatch in ``chunk_size``
        chunks — the PR-3 serve fast path lifted to the multi-source
        substrate.  Because the per-source trees are independent, this is
        cost-identical to serving the interleaved trace request by request
        through :meth:`serve`; per-tree record order, placements and all
        summaries match exactly.  The whole trace is checked before any of
        it is served, so a trace naming a non-source or an unreachable
        destination raises and leaves every tree untouched.
        """
        if trace.n_nodes != self.n_nodes:
            raise AlgorithmError(
                f"trace has {trace.n_nodes} nodes but the network has {self.n_nodes}"
            )
        chunk = (
            DEFAULT_CHUNK_SIZE
            if chunk_size is None
            else check_chunk_size(int(chunk_size))
        )
        for tree, elements in self._route(trace.per_source_sequences()):
            for start in range(0, len(elements), chunk):
                tree.serve_elements(elements[start : start + chunk])
        return self.cost_summary()

    def serve_trace_stream(
        self, chunks: Iterable[Tuple[Sequence[int], Sequence[int]]]
    ) -> Dict[str, float]:
        """Route a streamed trace and return network-wide cost statistics.

        The streaming twin of :meth:`serve_trace`: ``chunks`` is an iterable
        of ``(sources, destinations)`` chunk pairs — exactly what
        :meth:`repro.network.traffic.TrafficSpec.iter_trace` yields — served
        as they arrive, so the trace is never resident.  Each chunk is split
        into its per-source destination runs (relative order preserved) and
        fed through the owning trees' ``serve_batch`` dispatch; because the
        per-source trees are independent, the result is bit-identical to
        serving the interleaved trace request by request, whatever the chunk
        size.  Trials of a :class:`repro.plans.NetworkPlan` skip the
        interleave altogether and serve each source's stream on its own
        (:func:`serve_source_by_source`), with the same result.

        Each chunk is checked whole before any of it is served: its source
        and destination columns must have equal lengths, every source must
        be a source of this network and every destination reachable from
        it.  A rejected chunk raises and leaves every tree as the earlier
        chunks left it.
        """
        for sources, destinations in chunks:
            if len(sources) != len(destinations):
                raise AlgorithmError(
                    f"chunk has {len(sources)} sources but {len(destinations)} "
                    "destinations"
                )
            per_source: Dict[int, List[int]] = {}
            for source, destination in zip(sources, destinations):
                per_source.setdefault(source, []).append(destination)
            for tree, elements in self._route(per_source):
                tree.serve_elements(elements)
        return self.cost_summary()

    def _route(
        self, per_source: Dict[int, List[int]]
    ) -> List[Tuple[SingleSourceTreeNetwork, List[int]]]:
        """Pair each source's destinations with its tree, as tree elements.

        Checks everything before anything is served: every source must be a
        source of this network and every destination reachable from it, so
        a rejected trace or chunk leaves every tree untouched.
        """
        routed = []
        for source, destinations in per_source.items():
            tree = self.tree_of(source)
            routed.append((tree, tree.elements_of(destinations)))
        return routed

    # --------------------------------------------------------------- reporting

    def per_source_columns(self) -> Dict[str, List[float]]:
        """Return per-source cost totals as :func:`source_columns`.

        Rows are ordered by ascending source identifier, like a
        network-plan trial's ``metadata["per_source"]``.
        """
        return source_columns(
            self._trees[source].cost_summary() for source in sorted(self._trees)
        )

    def per_source_summary(self) -> Dict[int, Dict[str, float]]:
        """Return the cost summary of every source tree."""
        return {source: tree.cost_summary() for source, tree in self._trees.items()}

    def cost_summary(self) -> Dict[str, float]:
        """Return aggregate network statistics (totals over all source trees)."""
        totals = {
            "n_requests": 0.0,
            "total_access_cost": 0.0,
            "total_adjustment_cost": 0.0,
            "total_cost": 0.0,
        }
        for tree in self._trees.values():
            summary = tree.cost_summary()
            totals["n_requests"] += summary["n_requests"]
            totals["total_access_cost"] += summary["total_access_cost"]
            totals["total_adjustment_cost"] += summary["total_adjustment_cost"]
            totals["total_cost"] += summary["total_cost"]
        if totals["n_requests"]:
            totals["average_total_cost"] = totals["total_cost"] / totals["n_requests"]
            totals["average_access_cost"] = (
                totals["total_access_cost"] / totals["n_requests"]
            )
            totals["average_adjustment_cost"] = (
                totals["total_adjustment_cost"] / totals["n_requests"]
            )
        else:
            totals["average_total_cost"] = 0.0
            totals["average_access_cost"] = 0.0
            totals["average_adjustment_cost"] = 0.0
        totals["n_sources"] = float(len(self._trees))
        totals["algorithm"] = self.algorithm_name
        return totals
