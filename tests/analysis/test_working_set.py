"""Tests for ranks, working-set bound and working-set property helpers."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.working_set import (
    FenwickTree,
    max_working_set_violation,
    ranks_of_sequence,
    working_set_bound,
    working_set_property_ratios,
)
from repro.core.cost import RequestCost
from repro.exceptions import WorkloadError


def naive_rank(sequence, position):
    """Straightforward O(m^2) reference implementation of the rank."""
    element = sequence[position]
    previous = None
    for index in range(position - 1, -1, -1):
        if sequence[index] == element:
            previous = index
            break
    if previous is None:
        return len(set(sequence[: position + 1]))
    return len(set(sequence[previous + 1 : position + 1]))


class TestFenwickTree:
    def test_prefix_sums(self):
        tree = FenwickTree(8)
        for index in (1, 3, 5):
            tree.add(index, 2)
        assert tree.prefix_sum(0) == 0
        assert tree.prefix_sum(2) == 2
        assert tree.prefix_sum(8) == 6

    def test_range_sum(self):
        tree = FenwickTree(10)
        for index in range(10):
            tree.add(index, 1)
        assert tree.range_sum(3, 7) == 4

    def test_negative_updates(self):
        tree = FenwickTree(4)
        tree.add(2, 5)
        tree.add(2, -3)
        assert tree.prefix_sum(4) == 2

    def test_out_of_range(self):
        tree = FenwickTree(4)
        with pytest.raises(WorkloadError):
            tree.add(4, 1)
        with pytest.raises(WorkloadError):
            tree.prefix_sum(5)

    def test_invalid_size(self):
        with pytest.raises(WorkloadError):
            FenwickTree(-1)


class TestRanks:
    def test_simple_sequence(self):
        # sequence: a b a c b
        sequence = [0, 1, 0, 2, 1]
        assert ranks_of_sequence(sequence) == [1, 2, 2, 3, 3]

    def test_immediate_repetition_has_rank_one(self):
        assert ranks_of_sequence([4, 4, 4]) == [1, 1, 1]

    def test_first_access_universe_mode(self):
        assert ranks_of_sequence([3, 5], first_access="universe", universe_size=100) == [
            100,
            100,
        ]

    def test_universe_mode_requires_size(self):
        with pytest.raises(WorkloadError):
            ranks_of_sequence([1], first_access="universe")

    def test_invalid_mode(self):
        with pytest.raises(WorkloadError):
            ranks_of_sequence([1], first_access="bogus")

    def test_empty_sequence(self):
        assert ranks_of_sequence([]) == []

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_reference(self, sequence):
        fast = ranks_of_sequence(sequence)
        assert fast == [naive_rank(sequence, i) for i in range(len(sequence))]

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_ranks_bounded_by_distinct_count(self, sequence):
        distinct = len(set(sequence))
        for rank in ranks_of_sequence(sequence):
            assert 1 <= rank <= max(distinct, 1)


class TestWorkingSetBound:
    def test_repetitions_contribute_zero(self):
        assert working_set_bound([7] * 10) == 0.0

    def test_round_robin_bound(self):
        # Round robin over k elements: every non-first access has rank k.
        k, cycles = 8, 5
        sequence = list(range(k)) * cycles
        bound = working_set_bound(sequence)
        expected_tail = (len(sequence) - k) * math.log2(k)
        assert bound >= expected_tail

    def test_monotone_in_locality(self):
        local = working_set_bound([0, 0, 1, 1, 2, 2, 3, 3])
        spread = working_set_bound([0, 1, 2, 3, 0, 1, 2, 3])
        assert local <= spread

    def test_empty_sequence(self):
        assert working_set_bound([]) == 0.0


class TestWorkingSetProperty:
    def _records(self, access_costs):
        return [
            RequestCost(element=0, access_cost=cost, adjustment_cost=0, level_at_access=cost - 1)
            for cost in access_costs
        ]

    def test_ratios_shape(self):
        sequence = [0, 1, 0, 2]
        ratios = working_set_property_ratios(sequence, self._records([1, 2, 2, 3]))
        assert len(ratios) == 4
        assert all(r > 0 for r in ratios)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(WorkloadError):
            working_set_property_ratios([0, 1], self._records([1]))

    def test_max_violation(self):
        sequence = [0, 1, 0, 1, 0, 1]
        costs = self._records([1, 1, 6, 6, 6, 6])
        # rank of later accesses is 2, so log2(2) + 1 = 2 and the ratio is 3.
        assert max_working_set_violation(sequence, costs) == pytest.approx(3.0)

    def test_empty(self):
        assert max_working_set_violation([], []) == 0.0
