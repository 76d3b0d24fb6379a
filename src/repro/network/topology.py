"""Topology views of the reconfigurable network.

The physical topology induced by a multi-source self-adjusting network is the
union of the per-source tree edges (between the *network nodes currently
hosted* at adjacent tree positions) plus one attachment link from each source
to the network node at the root of its tree.  This module materialises that
view as a plain adjacency mapping, ``{node: set of neighbours}`` (an
undirected simple graph: every edge appears in both endpoints' sets), and
computes the degree statistics that make the "bounded degree" claim of the
composition concrete: each source tree contributes at most 3 edges to any
hosted node (binary tree degree) plus the attachment link at its root, so the
total degree is at most ``4 * n_sources`` and in practice far lower.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.network.multi_source import MultiSourceNetwork
from repro.network.single_source import SingleSourceTreeNetwork

__all__ = [
    "single_source_topology",
    "multi_source_topology",
    "degree_statistics",
    "theoretical_degree_bound",
]

#: An undirected topology: each node maps to the set of its neighbours.
Adjacency = Dict[int, Set[int]]


def _link(graph: Adjacency, first: int, second: int) -> None:
    graph[first].add(second)
    graph[second].add(first)


def single_source_topology(tree_network: SingleSourceTreeNetwork) -> Adjacency:
    """Return the current physical topology of one source tree.

    Nodes are network node identifiers (the source plus its destinations);
    edges connect network nodes hosted at adjacent tree positions, and one
    edge attaches the source to the network node currently at the tree root.
    Filler (padding) elements are skipped; if the root hosts one, the source
    is attached to nothing yet but still appears, so degree statistics are
    complete.
    """
    graph: Adjacency = {tree_network.source: set()}
    algorithm = tree_network.tree_algorithm
    tree = algorithm.network.tree
    hosted: Dict[int, int] = {}
    for destination in tree_network.destinations():
        element = tree_network.element_of(destination)
        hosted[algorithm.network.node_of(element)] = destination
        graph[destination] = set()

    for node, destination in hosted.items():
        if node == tree.root:
            _link(graph, tree_network.source, destination)
        else:
            parent_destination = hosted.get(tree.parent(node))
            if parent_destination is not None:
                _link(graph, parent_destination, destination)
    return graph


def multi_source_topology(network: MultiSourceNetwork) -> Adjacency:
    """Return the union topology of all source trees of a multi-source network.

    An edge that several trees share appears once.
    """
    union: Adjacency = {node: set() for node in range(network.n_nodes)}
    for source in network.sources:
        for node, neighbours in single_source_topology(network.tree_of(source)).items():
            union[node] |= neighbours
    return union


def degree_statistics(graph: Adjacency) -> Dict[str, float]:
    """Return max / mean degree and edge and node counts of a topology."""
    degrees = [len(neighbours) for neighbours in graph.values()]
    if not degrees:
        return {"max_degree": 0.0, "mean_degree": 0.0, "n_edges": 0.0, "n_nodes": 0.0}
    return {
        "max_degree": float(max(degrees)),
        "mean_degree": sum(degrees) / len(degrees),
        "n_edges": float(sum(degrees) // 2),
        "n_nodes": float(len(degrees)),
    }


def theoretical_degree_bound(n_sources: int) -> int:
    """Return the worst-case degree of any node in the union topology.

    Within one source tree a hosted network node touches at most 3 tree edges
    (its parent and two children) and possibly the source attachment link at
    the root, so ``n_sources`` trees contribute at most ``4 * n_sources``.
    """
    return 4 * n_sources
