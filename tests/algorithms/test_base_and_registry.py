"""Tests for the algorithm base class, run results and the registry/factory."""

from __future__ import annotations

import pytest

from repro.algorithms import (
    ALGORITHMS,
    PAPER_ALGORITHMS,
    SELF_ADJUSTING_ALGORITHMS,
    OnlineTreeAlgorithm,
    RotorPush,
    StaticOblivious,
    available_algorithms,
    get_algorithm_class,
    make_algorithm,
)
from repro.algorithms.base import RunResult
from repro.exceptions import AlgorithmError


class TestRegistry:
    def test_all_paper_algorithms_registered(self):
        for name in PAPER_ALGORITHMS:
            assert name in ALGORITHMS

    def test_self_adjusting_subset(self):
        for name in SELF_ADJUSTING_ALGORITHMS:
            assert get_algorithm_class(name).is_self_adjusting

    def test_available_algorithms_contains_baseline(self):
        assert "move-to-front" in available_algorithms()

    def test_unknown_algorithm_raises(self):
        with pytest.raises(AlgorithmError):
            get_algorithm_class("does-not-exist")

    def test_registry_names_match_class_attribute(self):
        for name, cls in ALGORITHMS.items():
            assert cls.name == name

    def test_make_algorithm_by_nodes(self):
        algorithm = make_algorithm("rotor-push", n_nodes=31, placement_seed=1)
        assert isinstance(algorithm, RotorPush)
        assert algorithm.network.tree.n_nodes == 31

    def test_make_algorithm_by_depth(self):
        algorithm = make_algorithm("static-oblivious", depth=4, placement_seed=1)
        assert algorithm.network.tree.depth == 4

    def test_make_algorithm_requires_exactly_one_size(self):
        with pytest.raises(AlgorithmError):
            make_algorithm("rotor-push", n_nodes=31, depth=4)
        with pytest.raises(AlgorithmError):
            make_algorithm("rotor-push")

    def test_seed_ignored_by_deterministic_algorithms(self):
        algorithm = make_algorithm("rotor-push", n_nodes=31, placement_seed=1, seed=5)
        assert isinstance(algorithm, RotorPush)

    def test_kwargs_forwarded(self):
        algorithm = make_algorithm(
            "rotor-push", n_nodes=31, placement_seed=1, exact_swaps=True
        )
        assert algorithm.exact_swaps is True


class TestBaseBehaviour:
    def test_serve_returns_cost_record(self):
        algorithm = make_algorithm("static-oblivious", n_nodes=15, placement_seed=3)
        record = algorithm.serve(4)
        assert record.element == 4
        assert record.access_cost == algorithm.network.ledger.records[0].access_cost

    def test_run_returns_result_with_totals(self):
        algorithm = make_algorithm("rotor-push", n_nodes=15, placement_seed=3)
        result = algorithm.run([1, 2, 3, 1, 1])
        assert isinstance(result, RunResult)
        assert result.n_requests == 5
        assert result.total_cost == result.total_access_cost + result.total_adjustment_cost
        assert len(result.per_request) == 5

    def test_run_attaches_metadata(self):
        algorithm = make_algorithm("rotor-push", n_nodes=15, placement_seed=3)
        result = algorithm.run([0, 1], metadata={"tag": "unit"})
        assert result.metadata["tag"] == "unit"

    def test_run_result_averages(self):
        result = RunResult(
            algorithm="x",
            n_nodes=15,
            n_requests=4,
            total_access_cost=8,
            total_adjustment_cost=4,
        )
        assert result.average_access_cost == 2.0
        assert result.average_adjustment_cost == 1.0
        assert result.average_total_cost == 3.0

    def test_run_result_zero_requests(self):
        result = RunResult(
            algorithm="x", n_nodes=1, n_requests=0, total_access_cost=0, total_adjustment_cost=0
        )
        assert result.average_total_cost == 0.0

    def test_run_result_to_dict_is_json_friendly(self):
        import json

        algorithm = make_algorithm("move-half", n_nodes=15, placement_seed=3)
        result = algorithm.run([5, 6, 5])
        payload = json.dumps(result.to_dict())
        assert "move-half" in payload

    def test_keep_records_false(self):
        algorithm = make_algorithm(
            "rotor-push", n_nodes=15, placement_seed=3, keep_records=False
        )
        result = algorithm.run([1, 2, 3])
        assert result.per_request == []
        assert result.n_requests == 3

    def test_abstract_class_cannot_be_instantiated(self, network_depth3):
        with pytest.raises(TypeError):
            OnlineTreeAlgorithm(network_depth3)  # type: ignore[abstract]

    def test_static_oblivious_requires_no_preparation(self):
        assert StaticOblivious.requires_preparation is False
