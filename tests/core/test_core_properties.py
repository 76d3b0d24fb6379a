"""Property-based tests (hypothesis) for the core substrate invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompleteBinaryTree, RotorState, TreeNetwork
from repro.core.pushdown import (
    apply_pushdown_cycle,
    apply_pushdown_swaps,
    pushdown_swap_cost,
)

# Depths 1..5 keep trees between 3 and 63 nodes: large enough to be interesting,
# small enough for hypothesis to explore many cases.
depths = st.integers(min_value=1, max_value=5)


@st.composite
def tree_and_two_nodes_same_level(draw):
    """A tree plus two (possibly equal) nodes drawn from the same level."""
    depth = draw(depths)
    tree = CompleteBinaryTree.from_depth(depth)
    level = draw(st.integers(min_value=0, max_value=depth))
    size = tree.level_size(level)
    u = tree.node_at(level, draw(st.integers(min_value=0, max_value=size - 1)))
    v = tree.node_at(level, draw(st.integers(min_value=0, max_value=size - 1)))
    return tree, u, v


@st.composite
def rotor_states(draw):
    """A rotor state with arbitrary pointer directions."""
    depth = draw(depths)
    tree = CompleteBinaryTree.from_depth(depth)
    n_internal = (1 << depth) - 1
    pointers = draw(
        st.lists(st.integers(min_value=0, max_value=1), min_size=n_internal, max_size=n_internal)
    )
    return RotorState(tree, pointers=pointers)


class TestTreeProperties:
    @given(depths, st.integers(min_value=0, max_value=62))
    def test_parent_child_inverse(self, depth, node_index):
        tree = CompleteBinaryTree.from_depth(depth)
        node = node_index % tree.n_nodes
        if node != 0:
            parent = tree.parent(node)
            assert node in (tree.left_child(parent), tree.right_child(parent))
            assert tree.level(parent) == tree.level(node) - 1

    @given(depths, st.integers(min_value=0, max_value=62), st.integers(min_value=0, max_value=62))
    def test_distance_is_a_metric(self, depth, first_index, second_index):
        tree = CompleteBinaryTree.from_depth(depth)
        a = first_index % tree.n_nodes
        b = second_index % tree.n_nodes
        assert tree.distance(a, a) == 0
        assert tree.distance(a, b) == tree.distance(b, a)
        assert tree.distance(a, b) <= tree.distance(a, 0) + tree.distance(0, b)

    @given(depths, st.integers(min_value=0, max_value=62), st.integers(min_value=0, max_value=62))
    def test_path_between_consecutive_nodes_adjacent(self, depth, first_index, second_index):
        tree = CompleteBinaryTree.from_depth(depth)
        a = first_index % tree.n_nodes
        b = second_index % tree.n_nodes
        path = tree.path_between(a, b)
        assert path[0] == a and path[-1] == b
        assert len(path) == tree.distance(a, b) + 1
        for previous, current in zip(path, path[1:]):
            adjacent = (previous != 0 and tree.parent(previous) == current) or (
                current != 0 and tree.parent(current) == previous
            )
            assert adjacent

    @given(depths)
    def test_level_sizes_sum_to_node_count(self, depth):
        tree = CompleteBinaryTree.from_depth(depth)
        assert sum(tree.level_size(level) for level in range(depth + 1)) == tree.n_nodes


class TestRotorProperties:
    @given(rotor_states())
    def test_flip_ranks_form_permutations(self, state):
        state.validate()

    @given(rotor_states(), st.integers(min_value=0, max_value=5))
    def test_flip_preserves_permutation_invariant(self, state, level):
        level = min(level, state.tree.depth)
        state.flip(level)
        state.validate()

    @given(rotor_states())
    def test_global_path_nodes_have_rank_zero(self, state):
        for level, node in enumerate(state.global_path()):
            assert state.flip_rank(node) == 0
            assert state.tree.level(node) == level

    @given(rotor_states(), st.integers(min_value=0, max_value=5))
    def test_flip_rank_inverse(self, state, level):
        level = min(level, state.tree.depth)
        for rank in range(1 << level):
            node = state.node_with_flip_rank(level, rank)
            assert state.flip_rank(node) == rank

    @given(rotor_states())
    @settings(max_examples=25)
    def test_full_flip_cycle_returns_to_start(self, state):
        depth = state.tree.depth
        initial = state.pointers()
        for _ in range(1 << depth):
            state.flip(depth)
        assert state.pointers() == initial


class TestPushdownProperties:
    @given(tree_and_two_nodes_same_level())
    @settings(max_examples=60)
    def test_swap_and_cycle_realisations_agree(self, data):
        tree, u, v = data
        swap_network = TreeNetwork(tree)
        cycle_network = TreeNetwork(tree)
        swap_network.ledger.open_request(0, 0)
        performed = apply_pushdown_swaps(swap_network, u, v)
        swap_network.ledger.close_request()
        cycle_network.ledger.open_request(0, 0)
        charged = apply_pushdown_cycle(cycle_network, u, v)
        cycle_network.ledger.close_request()
        assert swap_network.placement() == cycle_network.placement()
        assert performed == charged == pushdown_swap_cost(swap_network, u, v)
        swap_network.validate()

    @given(tree_and_two_nodes_same_level())
    @settings(max_examples=60)
    def test_pushdown_moves_requested_element_to_root(self, data):
        tree, u, v = data
        network = TreeNetwork(tree)
        requested = network.element_at(u)
        network.ledger.open_request(requested, tree.level(u))
        apply_pushdown_swaps(network, u, v)
        network.ledger.close_request()
        assert network.element_at(0) == requested

    @given(tree_and_two_nodes_same_level())
    @settings(max_examples=60)
    def test_pushdown_only_touches_cycle_nodes(self, data):
        tree, u, v = data
        network = TreeNetwork(tree)
        before = network.placement()
        cycle = set(tree.path_from_root(v)) | {u}
        network.ledger.open_request(0, 0)
        apply_pushdown_swaps(network, u, v)
        network.ledger.close_request()
        after = network.placement()
        for node in range(tree.n_nodes):
            if node not in cycle:
                assert after[node] == before[node]

    @given(tree_and_two_nodes_same_level())
    @settings(max_examples=60)
    def test_total_cost_within_lemma1_bound(self, data):
        tree, u, v = data
        network = TreeNetwork(tree)
        level = tree.level(u)
        swaps = pushdown_swap_cost(network, u, v)
        assert (level + 1) + swaps <= 4 * level + 1
