"""Complete binary tree substrate.

The self-adjusting tree network problem is defined over a *fixed* complete
binary tree: the tree topology never changes, only the assignment of elements
to nodes does.  This module provides :class:`CompleteBinaryTree`, a lightweight
structure-only model of that topology.  Nodes are identified by their heap
index: the root is ``0`` and node ``i`` has children ``2 i + 1`` and
``2 i + 2``.  All structural queries (parent, children, level, paths, lowest
common ancestor, distances) are provided here so that algorithm code never has
to re-derive index arithmetic.

The element-to-node mapping lives in :class:`repro.core.state.TreeNetwork`;
this module is purely about geometry.
"""

from __future__ import annotations

from typing import List

from repro.exceptions import TreeStructureError
from repro.types import Level, NodeId, NodePath

__all__ = [
    "CompleteBinaryTree",
    "is_complete_size",
    "depth_for_size",
    "size_for_depth",
    "node_levels_table",
]


def node_levels_table(n_nodes: int) -> List[Level]:
    """Return the level ``(k + 1).bit_length() - 1`` of every node ``k`` as a table.

    The canonical statement of the level of every node, used where a whole
    tree's levels are needed at once (the LRU index build).

    >>> node_levels_table(7)
    [0, 1, 1, 2, 2, 2, 2]
    """
    return [(node + 1).bit_length() - 1 for node in range(n_nodes)]


def is_complete_size(n_nodes: int) -> bool:
    """Return ``True`` if ``n_nodes`` equals ``2**(L+1) - 1`` for some ``L >= 0``.

    A complete binary tree with all levels full has such a node count.

    >>> [is_complete_size(k) for k in (1, 3, 7, 15, 4)]
    [True, True, True, True, False]
    """
    if n_nodes < 1:
        return False
    return (n_nodes + 1) & n_nodes == 0


def depth_for_size(n_nodes: int) -> int:
    """Return the maximal level ``L`` of a complete tree with ``n_nodes`` nodes.

    Raises :class:`TreeStructureError` if ``n_nodes`` is not a complete size.

    >>> depth_for_size(15)
    3
    """
    if not is_complete_size(n_nodes):
        raise TreeStructureError(
            f"{n_nodes} nodes do not form a complete binary tree "
            "(expected 2**(L+1) - 1 for some L >= 0)"
        )
    return (n_nodes + 1).bit_length() - 2


def size_for_depth(depth: int) -> int:
    """Return the number of nodes of a complete binary tree of maximal level ``depth``.

    >>> size_for_depth(3)
    15
    """
    if depth < 0:
        raise TreeStructureError(f"depth must be non-negative, got {depth}")
    return (1 << (depth + 1)) - 1


class CompleteBinaryTree:
    """Geometry of a complete binary tree with all levels full.

    Parameters
    ----------
    n_nodes:
        Number of nodes; must equal ``2**(L+1) - 1`` for some ``L >= 0``.

    Notes
    -----
    The class is immutable: it exposes only structural queries.  Instances are
    cheap (they store only the node count and depth) so they can be shared
    freely between algorithm instances and analysis code.
    """

    __slots__ = ("_n_nodes", "_depth")

    def __init__(self, n_nodes: int) -> None:
        self._depth = depth_for_size(n_nodes)
        self._n_nodes = n_nodes

    # ------------------------------------------------------------------ basics

    @classmethod
    def from_depth(cls, depth: int) -> "CompleteBinaryTree":
        """Build a tree whose deepest level is ``depth`` (root has level 0)."""
        return cls(size_for_depth(depth))

    @property
    def n_nodes(self) -> int:
        """Total number of nodes in the tree."""
        return self._n_nodes

    @property
    def depth(self) -> int:
        """Maximal level ``L_T`` (the root is at level 0)."""
        return self._depth

    @property
    def root(self) -> NodeId:
        """The root node (always ``0``)."""
        return 0

    def __len__(self) -> int:
        return self._n_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CompleteBinaryTree(n_nodes={self._n_nodes}, depth={self._depth})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompleteBinaryTree):
            return NotImplemented
        return self._n_nodes == other._n_nodes

    def __hash__(self) -> int:
        return hash(("CompleteBinaryTree", self._n_nodes))

    # -------------------------------------------------------------- validation

    def check_node(self, node: NodeId) -> NodeId:
        """Validate that ``node`` is a node of this tree and return it."""
        if not 0 <= node < self._n_nodes:
            raise TreeStructureError(
                f"node {node} outside tree with {self._n_nodes} nodes"
            )
        return node

    # ------------------------------------------------------------- navigation

    def parent(self, node: NodeId) -> NodeId:
        """Return the parent of ``node``; the root has no parent."""
        self.check_node(node)
        if node == 0:
            raise TreeStructureError("the root node has no parent")
        return (node - 1) >> 1

    def left_child(self, node: NodeId) -> NodeId:
        """Return the left child of ``node``; leaves have no children."""
        child = 2 * self.check_node(node) + 1
        if child >= self._n_nodes:
            raise TreeStructureError(f"node {node} is a leaf and has no children")
        return child

    def right_child(self, node: NodeId) -> NodeId:
        """Return the right child of ``node``; leaves have no children."""
        child = 2 * self.check_node(node) + 2
        if child >= self._n_nodes:
            raise TreeStructureError(f"node {node} is a leaf and has no children")
        return child

    def child(self, node: NodeId, direction: int) -> NodeId:
        """Return the child in ``direction`` (0 = left, 1 = right)."""
        if direction not in (0, 1):
            raise TreeStructureError(f"direction must be 0 or 1, got {direction}")
        return self.right_child(node) if direction else self.left_child(node)

    def is_leaf(self, node: NodeId) -> bool:
        """Return ``True`` if ``node`` has no children."""
        return 2 * self.check_node(node) + 1 >= self._n_nodes

    # ------------------------------------------------------------------ levels

    def level(self, node: NodeId) -> Level:
        """Return the level ``l(node)``; the root has level 0."""
        return (self.check_node(node) + 1).bit_length() - 1

    def level_size(self, level: Level) -> int:
        """Return how many nodes live at ``level`` (``2**level``)."""
        self._check_level(level)
        return 1 << level

    def first_node_at_level(self, level: Level) -> NodeId:
        """Return the leftmost node index of ``level``."""
        self._check_level(level)
        return (1 << level) - 1

    def nodes_at_level(self, level: Level) -> range:
        """Return the (contiguous) range of node indices at ``level``."""
        start = self.first_node_at_level(level)
        return range(start, start + (1 << level))

    def node_at(self, level: Level, offset: int) -> NodeId:
        """Return the ``offset``-th node (left-to-right) of ``level``."""
        size = self.level_size(level)
        if not 0 <= offset < size:
            raise TreeStructureError(
                f"offset {offset} outside level {level} of size {size}"
            )
        return self.first_node_at_level(level) + offset

    def leaves(self) -> range:
        """Return the range of leaf node indices (the deepest level)."""
        return self.nodes_at_level(self._depth)

    def _check_level(self, level: Level) -> None:
        if not 0 <= level <= self._depth:
            raise TreeStructureError(
                f"level {level} outside tree of depth {self._depth}"
            )

    # ------------------------------------------------------------------- paths

    def path_to_root(self, node: NodeId) -> NodePath:
        """Return the path ``node -> ... -> root`` (inclusive at both ends)."""
        self.check_node(node)
        path = [node]
        while node != 0:
            node = (node - 1) >> 1
            path.append(node)
        return path

    def path_from_root(self, node: NodeId) -> NodePath:
        """Return the path ``root -> ... -> node`` (inclusive at both ends)."""
        path = self.path_to_root(node)
        path.reverse()
        return path

    def ancestor_at_level(self, node: NodeId, level: Level) -> NodeId:
        """Return the ancestor of ``node`` living at ``level``.

        ``level`` must not exceed the level of ``node``; a node is its own
        ancestor at its own level.
        """
        own_level = self.level(node)
        if level > own_level:
            raise TreeStructureError(
                f"node {node} at level {own_level} has no ancestor at level {level}"
            )
        for _ in range(own_level - level):
            node = (node - 1) >> 1
        return node

    def is_ancestor(self, ancestor: NodeId, node: NodeId) -> bool:
        """Return ``True`` if ``ancestor`` lies on the root path of ``node``."""
        self.check_node(ancestor)
        self.check_node(node)
        anc_level = self.level(ancestor)
        if anc_level > self.level(node):
            return False
        return self.ancestor_at_level(node, anc_level) == ancestor

    def lowest_common_ancestor(self, a: NodeId, b: NodeId) -> NodeId:
        """Return the lowest common ancestor of nodes ``a`` and ``b``."""
        self.check_node(a)
        self.check_node(b)
        la, lb = self.level(a), self.level(b)
        while la > lb:
            a = (a - 1) >> 1
            la -= 1
        while lb > la:
            b = (b - 1) >> 1
            lb -= 1
        while a != b:
            a = (a - 1) >> 1
            b = (b - 1) >> 1
        return a

    def distance(self, a: NodeId, b: NodeId) -> int:
        """Return the number of tree edges on the unique path between ``a`` and ``b``."""
        lca = self.lowest_common_ancestor(a, b)
        return (self.level(a) - self.level(lca)) + (self.level(b) - self.level(lca))

    def path_between(self, a: NodeId, b: NodeId) -> NodePath:
        """Return the unique tree path from ``a`` to ``b`` (inclusive at both ends)."""
        lca = self.lowest_common_ancestor(a, b)
        up: NodePath = []
        node = a
        while node != lca:
            up.append(node)
            node = (node - 1) >> 1
        down: NodePath = []
        node = b
        while node != lca:
            down.append(node)
            node = (node - 1) >> 1
        down.reverse()
        return up + [lca] + down
