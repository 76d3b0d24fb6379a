"""Unit tests for the augmented push-down operation and path relocations."""

from __future__ import annotations

import pytest

from repro.core import CompleteBinaryTree, TreeNetwork
from repro.core.pushdown import (
    apply_pushdown_cycle,
    apply_pushdown_swaps,
    pushdown_cycle_nodes,
    pushdown_swap_cost,
    relocate_along_path,
)
from repro.exceptions import SwapError


def make_network(depth: int = 3, with_rotor: bool = False) -> TreeNetwork:
    return TreeNetwork(CompleteBinaryTree.from_depth(depth), with_rotor=with_rotor)


class TestCycleNodes:
    def test_cycle_when_u_differs_from_v(self):
        network = make_network()
        cycle = pushdown_cycle_nodes(network, u=10, v=13)
        assert cycle == [0, 2, 6, 13, 10]

    def test_cycle_when_u_equals_v(self):
        network = make_network()
        assert pushdown_cycle_nodes(network, u=13, v=13) == [0, 2, 6, 13]

    def test_cycle_requires_equal_levels(self):
        network = make_network()
        with pytest.raises(SwapError):
            pushdown_cycle_nodes(network, u=3, v=13)


class TestSwapCost:
    def test_cost_at_root_is_zero(self):
        network = make_network()
        assert pushdown_swap_cost(network, 0, 0) == 0

    def test_cost_when_u_equals_v(self):
        network = make_network()
        assert pushdown_swap_cost(network, 13, 13) == 3

    def test_cost_when_u_differs(self):
        network = make_network()
        assert pushdown_swap_cost(network, 10, 13) == 3 * 3 - 1

    def test_cost_requires_equal_levels(self):
        network = make_network()
        with pytest.raises(SwapError):
            pushdown_swap_cost(network, 1, 13)

    def test_cost_within_lemma1_bound(self):
        """Access cost (d + 1) plus the swap cost never exceeds 4 d (Lemma 1)."""
        network = make_network(depth=5)
        tree = network.tree
        for level in range(1, 6):
            u = tree.node_at(level, 0)
            v = tree.node_at(level, tree.level_size(level) - 1)
            assert (level + 1) + pushdown_swap_cost(network, u, v) <= 4 * level + 1


class TestPushdownSemantics:
    def _expected_cycle_result(self, network, u, v):
        cycle = pushdown_cycle_nodes(network, u, v)
        expected = network.placement()
        moved = [network.element_at(node) for node in cycle]
        for index, node in enumerate(cycle):
            expected[node] = moved[index - 1]
        return expected

    @pytest.mark.parametrize(
        "u,v",
        [
            (7, 7),  # u == v, leftmost leaf
            (7, 14),  # different subtrees of the root (LCA is the root)
            (9, 10),  # same level-1 subtree (LCA below the root)
            (8, 7),  # siblings
            (3, 6),  # internal level
            (1, 2),  # level 1
        ],
    )
    def test_swap_realisation_matches_cycle_definition(self, u, v):
        """The Lemma-1 adjacent-swap procedure realises exactly Definition 1's cycle."""
        swap_network = make_network()
        cycle_network = make_network()
        expected = self._expected_cycle_result(swap_network, u, v)

        swap_network.ledger.open_request(0, 0)
        apply_pushdown_swaps(swap_network, u, v)
        swap_network.ledger.close_request()

        cycle_network.ledger.open_request(0, 0)
        apply_pushdown_cycle(cycle_network, u, v)
        cycle_network.ledger.close_request()

        assert swap_network.placement() == expected
        assert cycle_network.placement() == expected
        swap_network.validate()
        cycle_network.validate()

    @pytest.mark.parametrize("u,v", [(7, 12), (11, 11), (9, 14), (4, 5)])
    def test_both_realisations_charge_identical_costs(self, u, v):
        swap_network = make_network()
        cycle_network = make_network()
        swap_network.ledger.open_request(0, 0)
        swaps_performed = apply_pushdown_swaps(swap_network, u, v)
        swap_record = swap_network.ledger.close_request()
        cycle_network.ledger.open_request(0, 0)
        swaps_charged = apply_pushdown_cycle(cycle_network, u, v)
        cycle_record = cycle_network.ledger.close_request()
        assert swaps_performed == swaps_charged
        assert swap_record.adjustment_cost == cycle_record.adjustment_cost

    def test_requested_element_ends_at_root(self):
        network = make_network()
        requested = network.element_at(10)
        network.ledger.open_request(requested, 3)
        apply_pushdown_swaps(network, 10, 13)
        network.ledger.close_request()
        assert network.element_at(0) == requested

    def test_pushdown_at_root_is_noop(self):
        network = make_network()
        before = network.placement()
        network.ledger.open_request(0, 0)
        assert apply_pushdown_swaps(network, 0, 0) == 0
        network.ledger.close_request()
        assert network.placement() == before

    def test_pushdown_respects_marking_discipline(self):
        network = TreeNetwork(
            CompleteBinaryTree.from_depth(3), enforce_marking=True
        )
        requested = network.element_at(10)
        network.access(requested)
        apply_pushdown_swaps(network, 10, 13)
        network.finish_request()
        assert network.element_at(0) == requested

    def test_mismatched_levels_raise(self):
        network = make_network()
        network.ledger.open_request(0, 0)
        with pytest.raises(SwapError):
            apply_pushdown_swaps(network, 3, 13)


class TestRelocation:
    def test_relocate_along_path_moves_head_element(self):
        network = make_network()
        path = [7, 3, 1, 0]
        network.ledger.open_request(0, 0)
        swaps = relocate_along_path(network, path)
        network.ledger.close_request()
        assert swaps == 3
        assert network.element_at(0) == 7
        # Intermediate elements shift one step towards the start of the path.
        assert network.element_at(7) == 3
        assert network.element_at(3) == 1
        assert network.element_at(1) == 0

    def test_relocate_along_path_single_node(self):
        network = make_network()
        network.ledger.open_request(0, 0)
        assert relocate_along_path(network, [4]) == 0
        network.ledger.close_request()

    def test_relocate_along_empty_path_raises(self):
        network = make_network()
        with pytest.raises(SwapError):
            relocate_along_path(network, [])

    def test_relocate_element_uses_tree_distance(self):
        network = make_network()
        network.ledger.open_request(0, 0)
        swaps = relocate_along_path(network, network.tree.path_between(7, 14))
        record = network.ledger.close_request()
        assert swaps == network.tree.distance(7, 14) == 6
        assert record.adjustment_cost == 6
        assert network.element_at(14) == 7
