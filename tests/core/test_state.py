"""Unit tests for the TreeNetwork state (placement, swaps, marking, cycles).

A random placement of ``SEEDED_KERNEL_MIN_DRAWS`` nodes or more with an
exact-``int`` seed is drawn from the seed by one kernel call;
``TestKernelPlacement`` pins it to the Python shuffle it replaces.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms import cascade_kernel
from repro.core import CompleteBinaryTree, TreeNetwork
from repro.core import state
from repro.core.draws import SEEDED_KERNEL_MIN_DRAWS
from repro.core.state import identity_placement, random_placement
from repro.exceptions import MappingError, SwapError

#: The seeds of the kernel's load-time check: zero to three key words and a
#: negative seed.
SEEDS = [0, 1, -7, 2**32, 2**64 + 3]


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

    def test_element_positions(self, tree_depth3):
        network = TreeNetwork.with_random_placement(tree_depth3, seed=4)
        placement = network.placement()
        positions = [network.node_of(element) for element in range(15)]
        assert [placement[node] for node in positions] == list(range(15))
        assert sorted(positions) == list(range(15))

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

    def test_trees_of_one_placement_seed_are_equal_and_independent(self):
        tree = CompleteBinaryTree(1023)
        first = TreeNetwork.with_random_placement(tree, seed=1)
        second = TreeNetwork.with_random_placement(tree, seed=1)
        assert first._elem_at == second._elem_at
        assert first._node_of == second._node_of
        first.swap(0, 1, charge=False)
        assert second._elem_at == TreeNetwork.with_random_placement(tree, seed=1)._elem_at

    def test_levels_view(self, tree_depth3):
        network = TreeNetwork.with_random_placement(tree_depth3, seed=4)
        view = [network.elements_at_level(level) for level in range(4)]
        assert view[0] == [network.element_at(0)]
        assert [len(elements) for elements in view] == [1, 2, 4, 8]
        assert [element for elements in view for element in elements] == network.placement()


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


@pytest.fixture
def port():
    """The loaded kernel, skipping when it is absent or its port disagrees."""
    loaded = cascade_kernel.load()
    if loaded is None:
        pytest.skip("the cascade kernel needs a C compiler")
    if not loaded.rng_port_matches:
        pytest.skip("this interpreter's random module no longer matches the port")
    return loaded


@pytest.fixture
def kernel_placements(monkeypatch):
    """The sizes of every kernel placement drawn, which still draws."""
    cascade_kernel.load()  # its load-time check draws placements too
    sizes = []
    seeded_placement = cascade_kernel.CascadeKernel.seeded_placement

    def counting(self, seed, n):
        sizes.append(n)
        return seeded_placement(self, seed, n)

    monkeypatch.setattr(cascade_kernel.CascadeKernel, "seeded_placement", counting)
    return sizes


def python_placement(n_nodes, seed):
    """``random_placement`` on the ``random`` loops, and its inverse."""
    placement = list(range(n_nodes))
    random.Random(seed).shuffle(placement)
    inverse = [0] * n_nodes
    for node, element in enumerate(placement):
        inverse[element] = node
    return placement, inverse


class TestKernelPlacement:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_nodes", [1, 3, 255, 511, 1023, 65_535])
    def test_the_kernel_draws_the_python_shuffle(self, port, n_nodes, seed):
        elem_at, node_of = port.seeded_placement(seed, n_nodes)
        assert (elem_at.tolist(), node_of.tolist()) == python_placement(n_nodes, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_nodes", [7, 15, 31, 255, 511, 1023])
    def test_from_the_threshold_up_a_placement_is_one_kernel_call(
        self, n_nodes, seed, kernel_placements
    ):
        network = TreeNetwork.with_random_placement(CompleteBinaryTree(n_nodes), seed=seed)
        assert (network._elem_at, network._node_of) == python_placement(n_nodes, seed)
        network.validate()
        for values in (network._elem_at, network._node_of):
            assert type(values) is list
            assert all(type(value) is int for value in values)
        kernel = cascade_kernel.load()
        on_kernel = (
            n_nodes >= SEEDED_KERNEL_MIN_DRAWS
            and kernel is not None
            and kernel.rng_port_matches
        )
        assert kernel_placements == ([n_nodes] if on_kernel else [])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_255_node_tree_takes_the_kernel(self, port, seed, kernel_placements):
        network = TreeNetwork.with_random_placement(CompleteBinaryTree(255), seed=seed)
        assert kernel_placements == [255]
        assert network._elem_at == random_placement(255, random.Random(seed))

    @pytest.mark.parametrize(
        "seed", [None, 3.0, "trial-3", True], ids=["none", "float", "str", "bool"]
    )
    def test_seeds_other_than_int_take_the_python_path(self, seed, kernel_placements):
        tree = CompleteBinaryTree(1023)
        network = TreeNetwork.with_random_placement(tree, seed=seed)
        network.validate()
        assert kernel_placements == []
        if seed is not None:
            assert network._elem_at == python_placement(1023, seed)[0]

    def test_an_int_subclass_seed_takes_the_python_path(self, kernel_placements):
        class Seed(int):
            pass

        tree = CompleteBinaryTree(1023)
        network = TreeNetwork.with_random_placement(tree, seed=Seed(3))
        assert kernel_placements == []
        # an int seed of the same value draws the same placement
        assert network._elem_at == TreeNetwork.with_random_placement(tree, seed=3)._elem_at

    def test_a_failed_self_check_takes_the_python_path(
        self, port, monkeypatch, kernel_placements
    ):
        monkeypatch.setattr(
            cascade_kernel.CascadeKernel, "_rng_port_matches", lambda self: False
        )
        failed = cascade_kernel.CascadeKernel(port.path)
        assert not failed.rng_port_matches
        monkeypatch.setattr(cascade_kernel, "load", lambda: failed)
        network = TreeNetwork.with_random_placement(CompleteBinaryTree(1023), seed=9)
        assert (network._elem_at, network._node_of) == python_placement(1023, 9)
        assert kernel_placements == []

    def test_a_kernel_result_that_is_no_bijection_raises(self, port, monkeypatch):
        tree = CompleteBinaryTree(1023)

        def repeated_element(state_pointer, key, key_length, n):
            return 17  # node 17 holds an element already placed

        monkeypatch.setattr(port, "_seeded_placement", repeated_element)
        with pytest.raises(MappingError, match="bijection"):
            TreeNetwork.with_random_placement(tree, seed=2)

    def test_a_python_draw_that_is_no_bijection_raises(self, monkeypatch):
        monkeypatch.setattr(state, "shuffled_range", lambda rng, n: [0] * n)
        with pytest.raises(MappingError, match="bijection"):
            TreeNetwork.with_random_placement(CompleteBinaryTree(15), seed=2)
