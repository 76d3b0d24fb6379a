"""The trusted bit-arithmetic tree primitives agree with the checked methods.

The serve paths inline these identities; these tests pin the module-level
canonical forms (:func:`node_level`, :func:`node_distance`, :func:`root_path`)
against the validated :class:`CompleteBinaryTree` queries over whole trees.
"""

from __future__ import annotations

import random

import pytest

from repro.core.tree import CompleteBinaryTree, node_distance, node_level, root_path


@pytest.fixture(scope="module")
def tree() -> CompleteBinaryTree:
    return CompleteBinaryTree.from_depth(6)  # 127 nodes


def test_node_level_matches_checked_level(tree):
    for node in range(tree.n_nodes):
        assert node_level(node) == tree.level(node)


def test_root_path_matches_checked_path(tree):
    for node in range(tree.n_nodes):
        assert root_path(node) == tree.path_from_root(node)


def test_node_distance_matches_checked_distance(tree):
    rng = random.Random(13)
    pairs = [(0, 0), (0, tree.n_nodes - 1)] + [
        (rng.randrange(tree.n_nodes), rng.randrange(tree.n_nodes))
        for _ in range(300)
    ]
    for a, b in pairs:
        assert node_distance(a, b) == tree.distance(a, b)
        assert node_distance(a, b) == node_distance(b, a)
