"""Augmented push-down operation and path-relocation helpers.

Definition 1 of the paper introduces the *augmented push-down* operation
``PD(u, v)``: given two nodes ``u`` (the node of the requested element) and
``v`` on the same level ``d``, fix the cycle

``root = v_0 -> v_1 -> ... -> v_{d-1} -> v_d = v -> u -> root``

and move every element at a cycle node to the next node of the cycle.  Lemma 1
shows the operation can be realised with ``O(d)`` adjacent swaps, which this
module implements in two interchangeable ways:

* :func:`apply_pushdown_swaps` executes the exact three-phase adjacent-swap
  realisation from the proof of Lemma 1 (bubble ``el(v)`` up, bubble it down to
  ``u``, bubble the requested element back up), charging each actual swap; and
* :func:`apply_pushdown_cycle` applies the cyclic shift directly and charges
  the same number of swaps analytically (fast path for large simulations).

Both produce the identical final configuration, which the test suite verifies.
The module also offers :func:`relocate_along_path`, the building block used by
Move-Half, where a single element is carried along a tree path by adjacent
swaps (shifting the intermediate elements one position backwards).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.state import TreeNetwork
from repro.exceptions import SwapError
from repro.types import NodeId

__all__ = [
    "pushdown_cycle_nodes",
    "pushdown_swap_cost",
    "apply_pushdown_swaps",
    "apply_pushdown_cycle",
    "relocate_along_path",
]


def pushdown_cycle_nodes(network: TreeNetwork, u: NodeId, v: NodeId) -> List[NodeId]:
    """Return the cycle of nodes of ``PD(u, v)`` in movement order.

    The returned list ``[v_0, v_1, ..., v_d, u]`` (with ``v_d = v``) is such
    that the element of each node moves to the *next* node of the list, and the
    element of the last node (``u``) moves to the first (the root).  When
    ``u == v`` the cycle simply ends at ``v``.
    """
    tree = network.tree
    level_u = tree.level(tree.check_node(u))
    level_v = tree.level(tree.check_node(v))
    if level_u != level_v:
        raise SwapError(
            f"PD(u, v) requires nodes of equal level, got levels {level_u} and {level_v}"
        )
    cycle = tree.path_from_root(v)
    if u != v:
        cycle.append(u)
    return cycle


def pushdown_swap_cost(network: TreeNetwork, u: NodeId, v: NodeId) -> int:
    """Return the number of adjacent swaps used by the Lemma-1 realisation.

    For a request at level ``d``: ``d`` swaps to bubble ``el(v)`` to the root;
    if ``u != v`` another ``d`` swaps to bubble it down to ``u`` and ``d - 1``
    swaps to return the requested element to the root, i.e. ``3 d - 1`` swaps
    in total (and ``d`` swaps when ``u == v``).  This matches the ``O(d)``
    bound of Lemma 1 (the paper quotes ``3 d - 4`` with a slightly different
    counting convention; the difference is an additive constant only).
    """
    tree = network.tree
    depth = tree.level(v)
    if tree.level(u) != depth:
        raise SwapError("PD(u, v) requires nodes of equal level")
    if depth == 0:
        return 0
    if u == v:
        return depth
    return 3 * depth - 1


def apply_pushdown_swaps(network: TreeNetwork, u: NodeId, v: NodeId) -> int:
    """Execute ``PD(u, v)`` with explicit adjacent swaps (Lemma 1 realisation).

    The requested element is assumed to currently occupy ``u``.  Returns the
    number of swaps performed (each is charged to the open request through the
    network's ledger).

    The three phases are:

    1. bubble the element at ``v`` up to the root - this pushes every element
       on the root-to-``v`` path one level down along that path;
    2. if ``u != v``, bubble that element from the root down to ``u`` - this
       temporarily lifts the elements of the root-to-``u`` path one level up;
    3. bubble the requested element (now at the parent of ``u``) back to the
       root - undoing the temporary lift of phase 2.

    The net effect is exactly the cyclic shift of Definition 1.
    """
    tree = network.tree
    depth = tree.level(v)
    if tree.level(u) != depth:
        raise SwapError("PD(u, v) requires nodes of equal level")
    if depth == 0:
        return 0

    if network.enforce_marking:
        # Conceptually the algorithm "accesses" el(v) to pick the push-down
        # path (cf. the proof of Lemma 1), which marks the root-to-v path and
        # legalises the phase-1 swaps under the marking discipline.
        for node in tree.path_from_root(v):
            network.mark(node)

    swaps = 0

    # Phase 1: bubble el(v) to the root.
    node = v
    while node != tree.root:
        node = network.swap_with_parent(node)
        swaps += 1

    if u == v:
        return swaps

    # Phase 2: bubble the same element from the root down to u.
    path_to_u = tree.path_from_root(u)
    for child in path_to_u[1:]:
        parent = tree.parent(child)
        network.swap(parent, child)
        swaps += 1

    # Phase 3: the requested element now sits at the parent of u; return it to the root.
    node = tree.parent(u)
    while node != tree.root:
        node = network.swap_with_parent(node)
        swaps += 1

    return swaps


def apply_pushdown_cycle(network: TreeNetwork, u: NodeId, v: NodeId) -> int:
    """Execute ``PD(u, v)`` as a direct cyclic shift with analytic swap cost.

    This is the fast path used in large simulations: the element permutation is
    identical to :func:`apply_pushdown_swaps`, and the charged adjustment cost
    equals the number of swaps the explicit realisation would perform.
    Returns the charged swap count.
    """
    cycle = pushdown_cycle_nodes(network, u, v)
    cost = pushdown_swap_cost(network, u, v)
    network.apply_cycle(cycle, charged_swaps=cost)
    return cost


def relocate_along_path(
    network: TreeNetwork,
    path: Sequence[NodeId],
    charge: bool = True,
) -> int:
    """Carry the element at ``path[0]`` to ``path[-1]`` by adjacent swaps.

    Every consecutive pair of ``path`` must be adjacent in the tree.  The
    element initially at ``path[0]`` ends at ``path[-1]``; each intermediate
    element shifts one position towards ``path[0]``.  Returns the number of
    swaps performed (``len(path) - 1``).
    """
    if len(path) < 1:
        raise SwapError("relocation path must contain at least one node")
    swaps = 0
    for index in range(1, len(path)):
        network.swap(path[index - 1], path[index], charge=charge)
        swaps += 1
    return swaps
