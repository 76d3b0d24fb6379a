"""Tests for the per-level least-recently-used index."""

from __future__ import annotations

import sys

import pytest

from repro.algorithms import cascade_kernel
from repro.algorithms.lru_index import LevelLRUIndex
from repro.core import CompleteBinaryTree, TreeNetwork
from repro.exceptions import AlgorithmError


@pytest.fixture
def network():
    return TreeNetwork(CompleteBinaryTree.from_depth(3))


@pytest.fixture
def index(network):
    return LevelLRUIndex(network)


class TestInitialState:
    def test_initial_levels_match_placement(self, network, index):
        index.validate_against(network)

    def test_never_accessed_elements_tie_break_by_identifier(self, index):
        # All of level 3 (elements 7..14 under the identity placement) are
        # unaccessed, so the LRU is the smallest identifier.
        assert index.least_recently_used(3) == 7

    def test_last_access_defaults_to_never(self, index):
        assert index.last_access(5) == -1


class TestAccessTracking:
    def test_accessed_element_stops_being_lru(self, index):
        index.record_access(7)
        assert index.least_recently_used(3) == 8

    def test_lru_is_oldest_access(self, index):
        for element in (9, 8, 7):
            index.record_access(element)
        for element in (10, 11, 12, 13, 14):
            index.record_access(element)
        assert index.least_recently_used(3) == 9

    def test_exclude_skips_element(self, index):
        assert index.least_recently_used(3, exclude=7) == 8

    def test_exclude_preserves_heap(self, index):
        assert index.least_recently_used(3, exclude=7) == 8
        # The excluded element must still be retrievable afterwards.
        assert index.least_recently_used(3) == 7

    def test_no_eligible_element_raises(self, index):
        with pytest.raises(AlgorithmError):
            index.least_recently_used(0, exclude=0)


class TestMoves:
    def test_move_changes_level(self, index):
        index.move(7, 1)
        assert index.level_of(7) == 1
        assert index.least_recently_used(1) == 1  # elements 1, 2 and now 7; 1 wins ties

    def test_move_to_same_level_is_noop(self, index):
        index.move(7, 3)
        assert index.level_of(7) == 3

    def test_move_out_of_range_raises(self, index):
        with pytest.raises(AlgorithmError):
            index.move(7, 9)

    def test_stale_entries_are_skipped(self, index):
        index.record_access(7)
        index.move(7, 0)
        # Element 7 left level 3 entirely; its old heap entries must not surface.
        assert index.least_recently_used(3) == 8

    def test_validate_against_detects_mismatch(self, network, index):
        index.move(7, 0)
        with pytest.raises(AlgorithmError):
            index.validate_against(network)


def _reference_order(index, level):
    """The level's members sorted by (last_access, element), from scratch."""
    members = [e for e in range(index._n_elements) if index.level_of(e) == level]
    return sorted(members, key=lambda e: (index.last_access(e), e))


class TestOrderedPlacement:
    """place() keeps every list sorted, across bitmap words and the tail walk."""

    @pytest.fixture
    def index(self):
        # 255 nodes: identifiers span four 64-bit words of the bitmap
        return LevelLRUIndex(TreeNetwork(CompleteBinaryTree.from_depth(7)))

    def test_never_accessed_moves_keep_identifier_order(self, index):
        # level 7 holds 127..254; move never-accessed elements from word to
        # word into level 6 (63..126) and back out again
        for element in (200, 130, 128, 254, 191, 192):
            index.move(element, 6)
            assert index.level_order(6) == _reference_order(index, 6)
        for element in (130, 63, 126):
            index.move(element, 7)
            assert index.level_order(7) == _reference_order(index, 7)

    def test_never_accessed_element_enters_an_empty_level(self, index):
        index.move(0, 7)  # level 0 is now empty
        index.move(5, 0)
        assert index.level_order(0) == [5]
        assert index.least_recently_used(0) == 5

    def test_accessed_elements_walk_from_the_tail(self, index):
        for element in (140, 3, 150, 60, 170):
            index.record_access(element)
        # stamps 140:1 3:2 150:3 60:4 170:5, so both walk back from 170
        index.move(3, 7)
        index.move(60, 7)
        order = index.level_order(7)
        assert order == _reference_order(index, 7)
        assert order[-4:] == [3, 150, 60, 170]

    def test_first_access_leaves_the_never_segment(self, index):
        index.record_access(200)
        index.move(200, 0)
        index.move(201, 0)  # never-accessed: enters ahead of the accessed ones
        assert index.level_order(0) == [0, 201, 200]


class TestValidateAgainst:
    def test_detects_unsorted_list(self, network, index):
        index._unlink(7)
        index._link_before(index._n_elements + 3, 7)  # tail, but never accessed
        with pytest.raises(AlgorithmError, match="not sorted"):
            index.validate_against(network)

    def test_detects_stale_never_index(self, network, index):
        index._last_access[9] = 0  # accessed behind the index's back
        index._unlink(9)
        index._link_before(index._n_elements + 3, 9)
        with pytest.raises(AlgorithmError, match="never-accessed index"):
            index.validate_against(network)

    def test_detects_membership_mismatch(self, network, index):
        index._unlink(8)
        index._link_before(index._n_elements + 2, 8)  # listed on level 2 only
        with pytest.raises(AlgorithmError, match="listed on level 2"):
            index.validate_against(network)


INDEX_FIELDS = (
    "_next", "_prev", "_last_access", "_level_of",
    "_never_words", "_never_summary", "_clock",
)


def _fields(index):
    return {name: getattr(index, name) for name in INDEX_FIELDS}


def _owner_fields(owner):
    """The index fields of a seeded owner's flat LRU buffers, in the lists
    :class:`LevelLRUIndex` keeps."""
    buffers = owner._buffers
    words, summary = buffers["never_words"], buffers["never_summary"]
    n_words, n_summary = buffers["n_words"], buffers["n_summary"]
    links = ("next", "prev", "last_access", "level_of")
    return {
        **{f"_{name}": buffers[name].tolist() for name in links},
        "_never_words": [
            words[start:start + n_words].tolist() for start in range(0, len(words), n_words)
        ],
        "_never_summary": [
            int.from_bytes(summary[start:start + n_summary].tobytes(), sys.byteorder)
            for start in range(0, len(summary), n_summary)
        ],
        "_clock": owner._state.clock,
    }


def _sorted_build_snapshot(network):
    """The index fields as the former ``sorted``-based constructor built them.

    Per level: the members read node by node, sorted, then linked one by one
    before the level's sentinel with their never-accessed bits set.
    """
    tree = network.tree
    n_elements = network.n_elements
    size = n_elements + tree.depth + 1
    nxt, prv = [0] * size, [0] * size
    level_of = [0] * n_elements
    n_words = (n_elements >> 6) + 1
    never_words, never_summary = [], []
    for level in range(tree.depth + 1):
        sentinel = n_elements + level
        nxt[sentinel] = prv[sentinel] = sentinel
        members = sorted(
            network.element_at(node) for node in tree.nodes_at_level(level)
        )
        words, summary = [0] * n_words, 0
        for element in members:
            level_of[element] = level
            tail = prv[sentinel]
            nxt[tail], prv[element] = element, tail
            nxt[element], prv[sentinel] = sentinel, element
            words[element >> 6] |= 1 << (element & 63)
            summary |= 1 << (element >> 6)
        never_words.append(words)
        never_summary.append(summary)
    return {
        "_next": nxt, "_prev": prv, "_last_access": [-1] * size,
        "_level_of": level_of, "_never_words": never_words,
        "_never_summary": never_summary, "_clock": 0,
    }


class TestInitialBuild:
    """The Python pass and the kernel's ``lru_build`` (on a seeded Move-Half
    owner of the same placement) build the same index."""

    @pytest.mark.parametrize("n_nodes", [1, 3, 255, 511, 1023, 65535])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_kernel_and_python_builds_agree(self, n_nodes, seed):
        network = TreeNetwork.with_random_placement(
            CompleteBinaryTree(n_nodes), seed=seed
        )
        python = LevelLRUIndex(network)
        python.validate_against(network)
        expected = _sorted_build_snapshot(network)
        assert _fields(python) == expected
        kernel = cascade_kernel.load()
        if kernel is None:
            pytest.skip("the cascade kernel is unavailable")
        owner = cascade_kernel.SeededTrees(kernel, "move_half", n_nodes)
        assert owner.serve(seed, 0, []) == (0, 0, 0)
        assert owner._buffers["node_of"].tolist() == network._node_of
        assert _owner_fields(owner) == expected
