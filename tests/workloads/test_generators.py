"""Tests for the uniform, temporal, Zipf, combined and Markov workloads."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.entropy import empirical_entropy, repeat_fraction
from repro.exceptions import WorkloadError
from repro.workloads import (
    CombinedLocalityWorkload,
    MarkovWorkload,
    SequenceWorkload,
    TemporalWorkload,
    UniformWorkload,
    ZipfWorkload,
)
from repro.workloads.temporal import apply_temporal_locality
from repro.workloads.zipf import zipf_probabilities


class TestBaseValidation:
    def test_universe_must_be_positive(self):
        with pytest.raises(WorkloadError):
            UniformWorkload(0)

    def test_negative_request_count_rejected(self):
        with pytest.raises(WorkloadError):
            UniformWorkload(10, seed=1).generate(-1)

    def test_parameters_reported(self):
        workload = UniformWorkload(10, seed=7)
        params = workload.parameters()
        assert params["workload"] == "uniform"
        assert params["n_elements"] == 10
        assert params["seed"] == 7


class TestUniform:
    def test_length_and_range(self):
        sequence = UniformWorkload(40, seed=2).generate(1_000)
        assert len(sequence) == 1_000
        assert all(0 <= element < 40 for element in sequence)

    def test_reproducible(self):
        assert UniformWorkload(40, seed=5).generate(200) == UniformWorkload(
            40, seed=5
        ).generate(200)

    def test_covers_the_universe(self):
        sequence = UniformWorkload(20, seed=3).generate(2_000)
        assert len(set(sequence)) == 20

    def test_zero_requests(self):
        assert UniformWorkload(10, seed=1).generate(0) == []


class TestTemporal:
    def test_invalid_probability(self):
        with pytest.raises(WorkloadError):
            TemporalWorkload(10, 1.5)
        with pytest.raises(WorkloadError):
            TemporalWorkload(10, -0.1)

    def test_zero_probability_changes_nothing_statistically(self):
        sequence = TemporalWorkload(255, 0.0, seed=4).generate(5_000)
        assert repeat_fraction(sequence) < 0.05

    def test_repeat_fraction_tracks_p(self):
        for probability in (0.3, 0.6, 0.9):
            sequence = TemporalWorkload(255, probability, seed=4).generate(20_000)
            assert repeat_fraction(sequence) == pytest.approx(probability, abs=0.03)

    def test_entropy_decreases_with_p(self):
        entropies = [
            empirical_entropy(TemporalWorkload(255, p, seed=4).generate(10_000))
            for p in (0.0, 0.45, 0.9)
        ]
        assert entropies[0] > entropies[1] > entropies[2]

    def test_post_processing_helper_keeps_first_request(self):
        import random

        base = [1, 2, 3, 4]
        processed = apply_temporal_locality(base, 1.0, random.Random(0))
        assert processed == [1, 1, 1, 1]

    def test_post_processing_invalid_probability(self):
        import random

        with pytest.raises(WorkloadError):
            apply_temporal_locality([1], 2.0, random.Random(0))

    def test_custom_base_workload(self):
        base = ZipfWorkload(127, 2.0, seed=1)
        workload = TemporalWorkload(127, 0.5, seed=2, base=base)
        sequence = workload.generate(5_000)
        assert repeat_fraction(sequence) >= 0.4

    def test_base_universe_must_match(self):
        with pytest.raises(WorkloadError):
            TemporalWorkload(127, 0.5, base=ZipfWorkload(63, 2.0))


class TestZipf:
    def test_invalid_exponent(self):
        with pytest.raises(WorkloadError):
            ZipfWorkload(10, 0.0)

    def test_probabilities_sum_to_one(self):
        # plain sum() works for both the NumPy vector and the list fallback
        probabilities = zipf_probabilities(100, 1.5)
        assert sum(probabilities) == pytest.approx(1.0)

    def test_probabilities_are_decreasing(self):
        probabilities = zipf_probabilities(50, 1.2)
        assert all(probabilities[i] >= probabilities[i + 1] for i in range(49))

    def test_higher_exponent_concentrates_requests(self):
        mild = ZipfWorkload(255, 1.001, seed=2).generate(10_000)
        skewed = ZipfWorkload(255, 2.2, seed=2).generate(10_000)
        assert len(set(skewed)) < len(set(mild))

    def test_permutation_spreads_popular_identifiers(self):
        workload = ZipfWorkload(255, 2.2, seed=3, permute_identifiers=True)
        sequence = workload.generate(5_000)
        most_common = max(set(sequence), key=sequence.count)
        plain = ZipfWorkload(255, 2.2, seed=3, permute_identifiers=False)
        plain_sequence = plain.generate(5_000)
        assert max(set(plain_sequence), key=plain_sequence.count) == 0
        assert 0 <= most_common < 255

    def test_reproducible(self):
        assert ZipfWorkload(63, 1.5, seed=9).generate(500) == ZipfWorkload(
            63, 1.5, seed=9
        ).generate(500)


class TestCombined:
    def test_combined_has_both_kinds_of_locality(self):
        workload = CombinedLocalityWorkload(255, 2.0, 0.7, seed=5)
        sequence = workload.generate(10_000)
        assert repeat_fraction(sequence) >= 0.6
        assert empirical_entropy(sequence) < 6.0

    def test_combined_invalid_probability(self):
        with pytest.raises(WorkloadError):
            CombinedLocalityWorkload(255, 2.0, 1.5)

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_generated_length_matches_request(self, n_requests):
        workload = CombinedLocalityWorkload(63, 1.5, 0.5, seed=1)
        assert len(workload.generate(n_requests)) == n_requests


class TestMarkov:
    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            MarkovWorkload(10, n_neighbours=0)
        with pytest.raises(WorkloadError):
            MarkovWorkload(10, self_loop=0.8, neighbour_probability=0.5)

    def test_sequence_in_range(self):
        sequence = MarkovWorkload(40, seed=2).generate(2_000)
        assert all(0 <= element < 40 for element in sequence)

    def test_self_loop_creates_repetitions(self):
        clingy = MarkovWorkload(255, self_loop=0.8, neighbour_probability=0.1, seed=3)
        sequence = clingy.generate(10_000)
        assert repeat_fraction(sequence) >= 0.7

    def test_reproducible(self):
        assert MarkovWorkload(63, seed=4).generate(500) == MarkovWorkload(
            63, seed=4
        ).generate(500)

    def test_zero_requests(self):
        assert MarkovWorkload(10, seed=1).generate(0) == []


class TestSequenceWorkload:
    def test_replays_fixed_trace(self):
        workload = SequenceWorkload(10, [1, 2, 3])
        assert workload.generate(2) == [1, 2]
        assert workload.generate(10) == [1, 2, 3]
        assert workload.full_sequence() == [1, 2, 3]

    def test_rejects_out_of_universe(self):
        with pytest.raises(WorkloadError):
            SequenceWorkload(3, [5])
