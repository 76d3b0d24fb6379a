"""Tests for empirical entropy, locality summaries and the complexity map."""

from __future__ import annotations

import math

import pytest

from repro.analysis.complexity_map import trace_complexity
from repro.analysis.entropy import (
    distinct_elements,
    empirical_entropy,
    frequency_distribution,
    locality_summary,
    repeat_fraction,
)
from repro.exceptions import WorkloadError
from repro.workloads.temporal import TemporalWorkload
from repro.workloads.zipf import ZipfWorkload


class TestEntropy:
    def test_uniform_frequencies_give_log_n(self):
        sequence = list(range(16)) * 4
        assert empirical_entropy(sequence) == pytest.approx(4.0)

    def test_single_element_gives_zero(self):
        assert empirical_entropy([3] * 50) == 0.0

    def test_empty_sequence(self):
        assert empirical_entropy([]) == 0.0

    def test_entropy_bounded_by_log_distinct(self):
        sequence = [0, 0, 0, 1, 2, 2, 3]
        assert empirical_entropy(sequence) <= math.log2(distinct_elements(sequence)) + 1e-9

    def test_frequency_distribution_sums_to_one(self):
        frequencies = frequency_distribution([1, 1, 2, 3])
        assert sum(frequencies.values()) == pytest.approx(1.0)

    def test_entropy_decreases_with_temporal_locality(self):
        low = TemporalWorkload(255, 0.0, seed=1).generate(5_000)
        high = TemporalWorkload(255, 0.9, seed=1).generate(5_000)
        assert empirical_entropy(high) < empirical_entropy(low)

    def test_entropy_decreases_with_zipf_skew(self):
        mild = ZipfWorkload(255, 1.001, seed=1).generate(5_000)
        skewed = ZipfWorkload(255, 2.2, seed=1).generate(5_000)
        assert empirical_entropy(skewed) < empirical_entropy(mild)


class TestRepeatFraction:
    def test_no_repeats(self):
        assert repeat_fraction([1, 2, 3, 4]) == 0.0

    def test_all_repeats(self):
        assert repeat_fraction([5, 5, 5, 5]) == 1.0

    def test_short_sequences(self):
        assert repeat_fraction([1]) == 0.0
        assert repeat_fraction([]) == 0.0

    def test_tracks_temporal_parameter(self):
        sequence = TemporalWorkload(255, 0.6, seed=3).generate(20_000)
        assert repeat_fraction(sequence) == pytest.approx(0.6, abs=0.05)


class TestLocalitySummary:
    def test_summary_keys(self):
        summary = locality_summary([1, 2, 2, 3])
        assert set(summary) == {"length", "distinct", "entropy_bits", "repeat_fraction"}
        assert summary["length"] == 4.0
        assert summary["distinct"] == 3.0


class TestComplexityMap:
    def test_empty_trace_rejected(self):
        with pytest.raises(WorkloadError):
            trace_complexity([])

    def test_complexities_lie_in_unit_interval(self):
        sequence = TemporalWorkload(255, 0.5, seed=2).generate(5_000)
        point = trace_complexity(sequence, universe_size=255)
        assert 0.0 <= point.temporal_complexity <= 1.0
        assert 0.0 <= point.non_temporal_complexity <= 1.0

    def test_temporal_structure_lowers_temporal_complexity(self):
        random_sequence = TemporalWorkload(255, 0.0, seed=4).generate(8_000)
        repetitive = TemporalWorkload(255, 0.9, seed=4).generate(8_000)
        random_point = trace_complexity(random_sequence, universe_size=255)
        repetitive_point = trace_complexity(repetitive, universe_size=255)
        assert repetitive_point.temporal_complexity < random_point.temporal_complexity

    def test_skew_lowers_non_temporal_complexity(self):
        uniform = ZipfWorkload(255, 1.001, seed=5).generate(8_000)
        skewed = ZipfWorkload(255, 2.2, seed=5).generate(8_000)
        uniform_point = trace_complexity(uniform, universe_size=255)
        skewed_point = trace_complexity(skewed, universe_size=255)
        assert skewed_point.non_temporal_complexity < uniform_point.non_temporal_complexity

    def test_uniform_trace_has_high_complexities(self):
        uniform = ZipfWorkload(255, 1.001, seed=6).generate(8_000)
        point = trace_complexity(uniform, universe_size=255)
        assert point.temporal_complexity > 0.8
        assert point.non_temporal_complexity > 0.7

    def test_reproducible_given_seed(self):
        sequence = TemporalWorkload(255, 0.5, seed=7).generate(4_000)
        first = trace_complexity(sequence, universe_size=255, seed=1)
        second = trace_complexity(sequence, universe_size=255, seed=1)
        assert first == second

    def test_compressed_size_positive(self):
        point = trace_complexity([1, 2, 3, 4], universe_size=5)
        assert point.compressed_original > 0
        assert point.compressed_shuffled > 0 and point.compressed_uniform > 0

    def test_invalid_universe(self):
        with pytest.raises(WorkloadError):
            trace_complexity([1, 2], universe_size=0)
