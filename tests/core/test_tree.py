"""Unit tests for the complete binary tree geometry."""

from __future__ import annotations

import pytest

from repro.core.tree import (
    CompleteBinaryTree,
    depth_for_size,
    is_complete_size,
    size_for_depth,
)
from repro.exceptions import TreeStructureError


class TestSizeHelpers:
    def test_complete_sizes_are_recognised(self):
        assert [is_complete_size(k) for k in (1, 3, 7, 15, 31)] == [True] * 5

    def test_non_complete_sizes_are_rejected(self):
        assert [is_complete_size(k) for k in (0, 2, 4, 6, 8, 100)] == [False] * 6

    def test_negative_size_is_not_complete(self):
        assert not is_complete_size(-7)

    def test_depth_for_size_inverts_size_for_depth(self):
        for depth in range(10):
            assert depth_for_size(size_for_depth(depth)) == depth

    def test_depth_for_size_rejects_bad_sizes(self):
        with pytest.raises(TreeStructureError):
            depth_for_size(10)

    def test_size_for_depth_rejects_negative(self):
        with pytest.raises(TreeStructureError):
            size_for_depth(-1)


class TestConstruction:
    def test_from_depth_matches_size_constructor(self):
        assert CompleteBinaryTree.from_depth(4) == CompleteBinaryTree(31)

    def test_invalid_size_raises(self):
        with pytest.raises(TreeStructureError):
            CompleteBinaryTree(12)

    def test_single_node_tree(self):
        tree = CompleteBinaryTree(1)
        assert tree.depth == 0
        assert tree.is_leaf(0)
        assert list(tree.leaves()) == [0]

    def test_len_and_n_nodes(self):
        tree = CompleteBinaryTree(15)
        assert len(tree) == 15
        assert tree.n_nodes == 15

    def test_equality_and_hash(self):
        assert CompleteBinaryTree(15) == CompleteBinaryTree(15)
        assert CompleteBinaryTree(15) != CompleteBinaryTree(7)
        assert hash(CompleteBinaryTree(15)) == hash(CompleteBinaryTree(15))


class TestNavigation:
    def test_root_properties(self, tree_depth3):
        assert tree_depth3.root == 0
        assert tree_depth3.level(0) == 0

    def test_parent_child_roundtrip(self, tree_depth3):
        for node in range(1, tree_depth3.n_nodes):
            parent = tree_depth3.parent(node)
            assert node in (tree_depth3.left_child(parent), tree_depth3.right_child(parent))

    def test_parent_of_root_raises(self, tree_depth3):
        with pytest.raises(TreeStructureError):
            tree_depth3.parent(0)

    def test_children_of_leaf_raise(self, tree_depth3):
        leaf = tree_depth3.first_node_at_level(3)
        with pytest.raises(TreeStructureError):
            tree_depth3.left_child(leaf)
        with pytest.raises(TreeStructureError):
            tree_depth3.right_child(leaf)

    def test_child_direction(self, tree_depth3):
        assert tree_depth3.child(0, 0) == 1
        assert tree_depth3.child(0, 1) == 2

    def test_child_invalid_direction(self, tree_depth3):
        with pytest.raises(TreeStructureError):
            tree_depth3.child(0, 2)

    def test_sibling(self, tree_depth3):
        # the sibling of a node is the other child of its parent
        for node in range(1, 15):
            parent = tree_depth3.parent(node)
            children = {tree_depth3.left_child(parent), tree_depth3.right_child(parent)}
            assert len(children - {node}) == 1
        assert tree_depth3.child(tree_depth3.parent(1), 1) == 2
        assert tree_depth3.child(tree_depth3.parent(2), 0) == 1

    def test_is_leaf_and_internal(self, tree_depth3):
        assert not any(tree_depth3.is_leaf(node) for node in range(7))
        assert all(tree_depth3.is_leaf(node) for node in tree_depth3.leaves())

    def test_node_out_of_range(self, tree_depth3):
        with pytest.raises(TreeStructureError):
            tree_depth3.check_node(15)
        with pytest.raises(TreeStructureError):
            tree_depth3.check_node(-1)


class TestLevels:
    def test_level_of_every_node(self, tree_depth3):
        expected = [0] + [1] * 2 + [2] * 4 + [3] * 8
        assert [tree_depth3.level(node) for node in range(15)] == expected

    def test_level_sizes(self, tree_depth3):
        assert [tree_depth3.level_size(level) for level in range(4)] == [1, 2, 4, 8]

    def test_nodes_at_level(self, tree_depth3):
        assert list(tree_depth3.nodes_at_level(2)) == [3, 4, 5, 6]

    def test_node_at_offset(self, tree_depth3):
        assert tree_depth3.node_at(2, 0) == 3
        assert tree_depth3.node_at(3, 7) == 14

    def test_node_at_bad_offset(self, tree_depth3):
        with pytest.raises(TreeStructureError):
            tree_depth3.node_at(2, 4)

    def test_offset_in_level(self, tree_depth3):
        assert tree_depth3.node_at(tree_depth3.level(3), 0) == 3
        assert tree_depth3.node_at(tree_depth3.level(6), 3) == 6
        for node in range(15):
            level = tree_depth3.level(node)
            offset = node - tree_depth3.first_node_at_level(level)
            assert 0 <= offset < tree_depth3.level_size(level)
            assert tree_depth3.node_at(level, offset) == node

    def test_level_out_of_range(self, tree_depth3):
        with pytest.raises(TreeStructureError):
            tree_depth3.level_size(4)

    def test_levels_iterator(self, tree_depth3):
        levels = [tree_depth3.nodes_at_level(level) for level in range(tree_depth3.depth + 1)]
        assert len(levels) == 4
        assert list(levels[0]) == [0]
        assert list(levels[3]) == list(range(7, 15))
        assert list(levels[3]) == list(tree_depth3.leaves())


class TestPaths:
    def test_path_to_root(self, tree_depth3):
        assert tree_depth3.path_to_root(11) == [11, 5, 2, 0]

    def test_path_from_root(self, tree_depth3):
        assert tree_depth3.path_from_root(11) == [0, 2, 5, 11]

    def test_ancestor_at_level(self, tree_depth3):
        assert tree_depth3.ancestor_at_level(11, 0) == 0
        assert tree_depth3.ancestor_at_level(11, 1) == 2
        assert tree_depth3.ancestor_at_level(11, 3) == 11

    def test_ancestor_above_node_level_raises(self, tree_depth3):
        with pytest.raises(TreeStructureError):
            tree_depth3.ancestor_at_level(1, 2)

    def test_is_ancestor(self, tree_depth3):
        assert tree_depth3.is_ancestor(0, 11)
        assert tree_depth3.is_ancestor(2, 11)
        assert not tree_depth3.is_ancestor(1, 11)
        assert tree_depth3.is_ancestor(11, 11)

    def test_lowest_common_ancestor(self, tree_depth3):
        assert tree_depth3.lowest_common_ancestor(7, 8) == 3
        assert tree_depth3.lowest_common_ancestor(7, 14) == 0
        assert tree_depth3.lowest_common_ancestor(3, 8) == 3

    def test_distance(self, tree_depth3):
        assert tree_depth3.distance(7, 8) == 2
        assert tree_depth3.distance(0, 7) == 3
        assert tree_depth3.distance(5, 5) == 0

    def test_path_between(self, tree_depth3):
        assert tree_depth3.path_between(7, 8) == [7, 3, 8]
        assert tree_depth3.path_between(7, 4) == [7, 3, 1, 4]
        assert tree_depth3.path_between(5, 5) == [5]

    def test_path_between_is_symmetric(self, tree_depth3):
        forward = tree_depth3.path_between(7, 12)
        backward = tree_depth3.path_between(12, 7)
        assert forward == list(reversed(backward))


class TestSubtrees:
    """The subtree of a node is the set of nodes it is an ancestor of."""

    @staticmethod
    def subtree(tree, node):
        return [other for other in range(tree.n_nodes) if tree.is_ancestor(node, other)]

    def test_subtree_nodes(self, tree_depth3):
        assert self.subtree(tree_depth3, 1) == [1, 3, 4, 7, 8, 9, 10]
        assert self.subtree(tree_depth3, 2) == [2, 5, 6, 11, 12, 13, 14]

    def test_subtree_size(self, tree_depth3):
        assert len(self.subtree(tree_depth3, 0)) == 15
        assert len(self.subtree(tree_depth3, 1)) == 7
        assert len(self.subtree(tree_depth3, 7)) == 1

    def test_descendant_at(self, tree_depth3):
        def descendant_at(node, directions):
            for direction in directions:
                node = tree_depth3.child(node, direction)
            return node

        assert descendant_at(0, [0, 0, 0]) == 7
        assert descendant_at(0, [1, 1, 1]) == 14
        assert descendant_at(2, [0]) == 5
        for leaf in tree_depth3.leaves():
            assert tree_depth3.ancestor_at_level(leaf, 1) == descendant_at(
                0, [0] if tree_depth3.is_ancestor(1, leaf) else [1]
            )

    def test_bfs_order_is_heap_order(self, tree_depth3):
        order = [
            node
            for level in range(tree_depth3.depth + 1)
            for node in tree_depth3.nodes_at_level(level)
        ]
        assert order == list(range(15))
