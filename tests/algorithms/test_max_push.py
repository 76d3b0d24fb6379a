"""Behavioural tests for Max-Push (Strict-MRU)."""

from __future__ import annotations

import pytest

from repro.algorithms import MaxPush
from repro.core import CompleteBinaryTree, TreeNetwork


def fresh_max_push(depth: int = 3) -> MaxPush:
    return MaxPush(TreeNetwork(CompleteBinaryTree.from_depth(depth)))


def recency_order_is_mru(algorithm: MaxPush) -> bool:
    """Check the strict-MRU invariant: along every root path, recency never increases."""
    network = algorithm.network
    tree = network.tree
    last_access = {
        element: algorithm._lru.last_access(element) for element in range(tree.n_nodes)
    }
    for node in range(1, tree.n_nodes):
        parent = tree.parent(node)
        if last_access[network.element_at(node)] > last_access[network.element_at(parent)]:
            return False
    return True


class TestServeBehaviour:
    def test_accessed_element_moves_to_root(self):
        algorithm = fresh_max_push()
        algorithm.serve(13)
        assert algorithm.network.element_at(0) == 13

    def test_root_access_is_noop(self):
        algorithm = fresh_max_push()
        record = algorithm.serve(0)
        assert record.adjustment_cost == 0

    def test_one_element_demoted_per_level(self):
        algorithm = fresh_max_push()
        before_levels = {
            element: algorithm.network.level_of(element) for element in range(15)
        }
        algorithm.serve(13)  # level 3 access
        after_levels = {
            element: algorithm.network.level_of(element) for element in range(15)
        }
        # The accessed element jumps to the root; exactly one element per level
        # 0..2 moves one level down; one level-3 element moves within level 3.
        changed = {e for e in range(15) if before_levels[e] != after_levels[e]}
        demoted = changed - {13}
        assert after_levels[13] == 0
        assert len(demoted) == 3
        for element in demoted:
            assert after_levels[element] == before_levels[element] + 1

    def test_adjustment_cost_reflects_travel_distances(self):
        algorithm = fresh_max_push()
        record = algorithm.serve(13)
        # Cost must at least cover moving the element up 3 levels and is bounded
        # by a constant times depth squared.
        assert record.adjustment_cost >= 3
        assert record.adjustment_cost <= 4 * 3 * 3

    def test_mru_invariant_holds_after_each_request(self, rng):
        algorithm = fresh_max_push(depth=4)
        # Warm up: touch every element once so recencies are well defined.
        for element in range(31):
            algorithm.serve(element)
        assert recency_order_is_mru(algorithm)
        for _ in range(200):
            algorithm.serve(rng.randrange(31))
            assert recency_order_is_mru(algorithm)

    def test_access_cost_matches_working_set_after_warmup(self, rng):
        """Strict MRU order implies the working-set property for access costs."""
        import math

        from repro.analysis.working_set import ranks_of_sequence

        algorithm = fresh_max_push(depth=4)
        warmup = list(range(31))
        for element in warmup:
            algorithm.serve(element)
        sequence = [rng.randrange(31) for _ in range(300)]
        records = [algorithm.serve(element) for element in sequence]
        ranks = ranks_of_sequence(warmup + sequence)[len(warmup):]
        for record, rank in zip(records, ranks):
            # Access cost is at most log2(rank) + 2: the element's level cannot
            # exceed the number of full levels occupied by its working set.
            assert record.access_cost <= math.log2(max(rank, 1)) + 2

    def test_bijection_and_index_consistency(self, rng):
        algorithm = fresh_max_push(depth=4)
        for _ in range(300):
            algorithm.serve(rng.randrange(31))
        algorithm.network.validate()
        algorithm._lru.validate_against(algorithm.network)

    def test_is_deterministic(self):
        sequence = [13, 4, 9, 13, 2, 7, 11]
        assert (
            fresh_max_push().run(sequence).total_cost
            == fresh_max_push().run(sequence).total_cost
        )

    def test_repeat_run_batching_matches_request_by_request(self, rng):
        """Repeat runs served in batches: victim selection, placements,
        totals, records and the LRU clock equal serving one at a time."""
        sequence = []
        while len(sequence) < 600:
            element = rng.randrange(31)
            sequence.extend([element] * rng.randrange(1, 6))
        reference = fresh_max_push(depth=4)
        for element in sequence:
            reference.serve(element)
        batched = fresh_max_push(depth=4)
        for start in range(0, len(sequence), 37):
            batched.serve_batch(sequence[start : start + 37])
        assert batched.network.placement() == reference.network.placement()
        assert (
            batched.network.ledger.snapshot_totals()
            == reference.network.ledger.snapshot_totals()
        )
        assert list(batched.network.ledger.records) == list(
            reference.network.ledger.records
        )
        batched._lru.validate_against(batched.network)
        # the batched clock advanced once per request, exactly like serial
        assert batched._lru._clock == reference._lru._clock

    def test_adjustment_cost_higher_than_rotor_push(self, rng):
        """The paper's evaluation: Max-Push pays the highest adjustment cost."""
        from repro.algorithms import RotorPush

        sequence = [rng.randrange(63) for _ in range(1_500)]
        max_push = MaxPush(TreeNetwork(CompleteBinaryTree.from_depth(5)))
        rotor = RotorPush(TreeNetwork(CompleteBinaryTree.from_depth(5), with_rotor=True))
        max_result = max_push.run(sequence)
        rotor_result = rotor.run(sequence)
        assert max_result.average_adjustment_cost > rotor_result.average_adjustment_cost
