"""The bit-arithmetic tree identities of the serve paths agree with the tree.

The serve paths inline ``(node + 1).bit_length() - 1`` for a node's level and
``(node - 1) >> 1`` for its parent; these tests pin the surviving fast forms
(:func:`node_levels_table` and :meth:`TreeNetwork.access`) against the
validated :class:`CompleteBinaryTree` queries over whole trees.
"""

from __future__ import annotations

import random

import pytest

from repro.core.state import TreeNetwork
from repro.core.tree import CompleteBinaryTree, node_levels_table


@pytest.fixture(scope="module")
def tree() -> CompleteBinaryTree:
    return CompleteBinaryTree.from_depth(6)  # 127 nodes


def test_node_level_matches_checked_level(tree):
    assert node_levels_table(tree.n_nodes) == [tree.level(node) for node in range(tree.n_nodes)]
    network = TreeNetwork.with_random_placement(tree, seed=13)
    for element in range(tree.n_nodes):
        assert network.access(element) == tree.level(network.node_of(element))
        network.finish_request()


def test_root_path_matches_checked_path(tree):
    network = TreeNetwork.with_random_placement(tree, seed=13, enforce_marking=True)
    for element in range(tree.n_nodes):
        network.access(element)
        path = tree.path_from_root(network.node_of(element))
        assert [node for node in range(tree.n_nodes) if network.is_marked(node)] == sorted(path)
        network.finish_request()


def test_node_distance_matches_checked_distance(tree):
    rng = random.Random(13)
    pairs = [(0, 0), (0, tree.n_nodes - 1)] + [
        (rng.randrange(tree.n_nodes), rng.randrange(tree.n_nodes))
        for _ in range(300)
    ]
    for a, b in pairs:
        lca = tree.lowest_common_ancestor(a, b)
        assert tree.distance(a, b) == tree.level(a) + tree.level(b) - 2 * tree.level(lca)
        assert tree.distance(a, b) == len(tree.path_between(a, b)) - 1
        assert tree.distance(a, b) == tree.distance(b, a)
