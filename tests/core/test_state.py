"""Unit tests for the TreeNetwork state (placement, swaps, marking, cycles)."""

from __future__ import annotations

import pytest

from repro.core import CompleteBinaryTree, TreeNetwork
from repro.core.state import identity_placement, random_placement
from repro.exceptions import MappingError, SwapError


class TestPlacements:
    def test_identity_placement(self):
        assert identity_placement(7) == list(range(7))

    def test_random_placement_is_permutation(self, rng):
        placement = random_placement(31, rng)
        assert sorted(placement) == list(range(31))

    def test_random_placement_reproducible(self):
        import random

        first = random_placement(31, random.Random(5))
        second = random_placement(31, random.Random(5))
        assert first == second

    def test_with_random_placement_factory(self, tree_depth3):
        network = TreeNetwork.with_random_placement(tree_depth3, seed=9, with_rotor=True)
        network.validate()
        assert network.rotor is not None


class TestMapping:
    def test_identity_mapping_roundtrip(self, network_depth3):
        for element in range(15):
            assert network_depth3.element_at(network_depth3.node_of(element)) == element

    def test_level_of(self, network_depth3):
        assert network_depth3.level_of(0) == 0
        assert network_depth3.level_of(7) == 3

    def test_elements_at_level(self, network_depth3):
        assert network_depth3.elements_at_level(1) == [1, 2]

    def test_placement_copy_is_detached(self, network_depth3):
        placement = network_depth3.placement()
        placement[0] = 99
        assert network_depth3.element_at(0) == 0

    def test_element_positions(self, network_depth3):
        positions = network_depth3.element_positions()
        assert positions[0] == 0
        assert len(positions) == 15

    def test_bad_placement_length(self, tree_depth3):
        with pytest.raises(MappingError):
            TreeNetwork(tree_depth3, placement=[0, 1, 2])

    def test_non_bijective_placement(self, tree_depth3):
        with pytest.raises(MappingError):
            TreeNetwork(tree_depth3, placement=[0] * 15)

    @pytest.mark.parametrize(
        "placement",
        [
            [0, 0, *range(2, 15)],
            [-1, *range(1, 15)],
            [*range(14), 15],
        ],
        ids=["duplicate", "negative", "out-of-range"],
    )
    def test_one_bad_entry_is_rejected(self, tree_depth3, placement):
        with pytest.raises(MappingError, match="bijection"):
            TreeNetwork(tree_depth3, placement=placement)

    def test_unknown_element(self, network_depth3):
        with pytest.raises(MappingError):
            network_depth3.node_of(100)

    def test_reset_placement(self, network_depth3):
        new_placement = list(reversed(range(15)))
        network_depth3.reset_placement(new_placement)
        network_depth3.validate()
        assert network_depth3.element_at(0) == 14

    def test_placement_lists_share_int_objects_across_trees(self):
        # 256 trees of 1,023 nodes must not each box their own 2 x n ints
        tree = CompleteBinaryTree(1023)
        first = TreeNetwork.with_random_placement(tree, seed=1)
        second = TreeNetwork.with_random_placement(tree, seed=2)
        by_value = {element: element for element in first.placement()}
        for network in (first, second):
            assert all(by_value[e] is e for e in network._elem_at)
            assert all(by_value[n] is n for n in network._node_of)

    def test_levels_view(self, network_depth3):
        view = network_depth3.levels_view()
        assert view[0] == [0]
        assert view[3] == list(range(7, 15))


class TestSwaps:
    def test_swap_adjacent(self, network_depth3):
        network_depth3.ledger.open_request(0, 0)
        network_depth3.swap(0, 1)
        assert network_depth3.element_at(0) == 1
        assert network_depth3.element_at(1) == 0
        record = network_depth3.ledger.close_request()
        assert record.adjustment_cost == 1

    def test_swap_non_adjacent_raises(self, network_depth3):
        network_depth3.ledger.open_request(0, 0)
        with pytest.raises(SwapError):
            network_depth3.swap(0, 3)

    def test_swap_with_parent(self, network_depth3):
        network_depth3.ledger.open_request(0, 0)
        parent = network_depth3.swap_with_parent(3)
        assert parent == 1
        assert network_depth3.element_at(1) == 3

    def test_swap_without_charge(self, network_depth3):
        network_depth3.ledger.open_request(0, 0)
        network_depth3.swap(0, 1, charge=False)
        assert network_depth3.ledger.close_request().adjustment_cost == 0

    def test_swap_preserves_bijection(self, network_depth5_random):
        network_depth5_random.ledger.open_request(0, 0)
        network_depth5_random.swap(0, 2)
        network_depth5_random.swap(2, 6)
        network_depth5_random.validate()


class TestMarking:
    def test_access_marks_root_path(self, tree_depth3):
        network = TreeNetwork(tree_depth3, enforce_marking=True)
        network.access(11)
        for node in (11, 5, 2, 0):
            assert network.is_marked(node)
        assert not network.is_marked(1)
        network.finish_request()

    def test_swap_of_unmarked_nodes_rejected(self, tree_depth3):
        network = TreeNetwork(tree_depth3, enforce_marking=True)
        network.access(11)
        with pytest.raises(SwapError):
            network.swap(1, 3)
        network.finish_request()

    def test_swap_spreads_marking(self, tree_depth3):
        network = TreeNetwork(tree_depth3, enforce_marking=True)
        network.access(11)
        network.swap(2, 6)  # node 2 is marked, node 6 becomes marked
        network.swap(6, 13)  # now legal because 6 is marked
        network.finish_request()

    def test_finish_request_clears_marks(self, tree_depth3):
        network = TreeNetwork(tree_depth3, enforce_marking=True)
        network.access(11)
        network.finish_request()
        assert not network.is_marked(11)

    def test_explicit_mark(self, tree_depth3):
        network = TreeNetwork(tree_depth3, enforce_marking=True)
        network.access(0)
        network.mark(2)
        network.swap(2, 5)
        network.finish_request()


class TestAccessAndCycles:
    def test_access_records_level(self, network_depth3):
        level = network_depth3.access(11)
        assert level == 3
        record = network_depth3.finish_request()
        assert record.access_cost == 4

    def test_apply_cycle_rotates_elements(self, network_depth3):
        network_depth3.ledger.open_request(0, 0)
        network_depth3.apply_cycle([0, 1, 3], charged_swaps=4)
        # element at 0 -> node 1, element at 1 -> node 3, element at 3 -> node 0
        assert network_depth3.element_at(1) == 0
        assert network_depth3.element_at(3) == 1
        assert network_depth3.element_at(0) == 3
        assert network_depth3.ledger.close_request().adjustment_cost == 4
        network_depth3.validate()

    def test_apply_cycle_rejects_duplicates(self, network_depth3):
        network_depth3.ledger.open_request(0, 0)
        with pytest.raises(SwapError):
            network_depth3.apply_cycle([0, 1, 0], charged_swaps=1)

    def test_apply_cycle_rejects_negative_charge(self, network_depth3):
        network_depth3.ledger.open_request(0, 0)
        with pytest.raises(SwapError):
            network_depth3.apply_cycle([0, 1], charged_swaps=-1)

    def test_apply_cycle_single_node_is_noop(self, network_depth3):
        network_depth3.ledger.open_request(0, 0)
        network_depth3.apply_cycle([5], charged_swaps=0)
        assert network_depth3.element_at(5) == 5

    def test_copy_is_independent(self, network_depth3):
        clone = network_depth3.copy()
        clone.ledger.open_request(0, 0)
        clone.swap(0, 1)
        clone.ledger.close_request()
        assert network_depth3.element_at(0) == 0
        assert clone.element_at(0) == 1

    def test_validate_detects_corruption(self, network_depth3):
        network_depth3._elem_at[0] = 1  # type: ignore[attr-defined]
        with pytest.raises(MappingError):
            network_depth3.validate()
