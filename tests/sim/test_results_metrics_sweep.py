"""Tests for result tables, per-request metrics and sweep-plan runs."""

from __future__ import annotations

import json

import pytest

import repro
from repro.exceptions import ExperimentError, PlanError
from repro.plans import RunConfig, SweepPlan
from repro.sim.engine import simulate
from repro.sim.metrics import (
    access_cost_series,
    adjustment_cost_series,
    histogram_of_differences,
    moving_average,
    per_request_cost_difference,
    total_cost_series,
)
from repro.sim.results import ResultTable, summarise_values
from repro.workloads import UniformWorkload
from repro.workloads.spec import WorkloadSpec


class TestResultTable:
    def make_table(self):
        table = ResultTable(name="demo", columns=["x", "value"])
        table.add_row(x=1, value=2.5)
        table.add_row(x=2, value=3.5)
        return table

    def test_add_row_requires_all_columns(self):
        table = ResultTable(name="demo", columns=["x", "value"])
        with pytest.raises(ExperimentError):
            table.add_row(x=1)

    def test_column_extraction(self):
        assert self.make_table().column("value") == [2.5, 3.5]

    def test_unknown_column(self):
        with pytest.raises(ExperimentError):
            self.make_table().column("missing")

    def test_filter(self):
        filtered = self.make_table().filter(x=2)
        assert len(filtered) == 1
        assert filtered.rows[0]["value"] == 3.5

    def test_csv_roundtrip(self, tmp_path):
        path = self.make_table().to_csv(str(tmp_path / "out.csv"))
        content = path.read_text().splitlines()
        assert content[0] == "x,value"
        assert len(content) == 3

    def test_json_export(self, tmp_path):
        payload = self.make_table().to_json(str(tmp_path / "out.json"))
        decoded = json.loads(payload)
        assert decoded["name"] == "demo"
        assert len(decoded["rows"]) == 2

    def test_format_text_contains_all_rows(self):
        text = self.make_table().format_text()
        assert "demo" in text and "2.500" in text and "3.500" in text

    def test_format_text_row_limit(self):
        text = self.make_table().format_text(max_rows=1)
        assert "more rows" in text

    def test_extend(self):
        table = ResultTable(name="demo", columns=["x", "value"])
        table.extend([{"x": 1, "value": 1.0}, {"x": 2, "value": 2.0}])
        assert len(table) == 2

    def test_nan_cells_compare_equal(self):
        def table(ratio):
            built = ResultTable(name="demo", columns=["x", "ratio"])
            built.add_row(x=1, ratio=ratio, extra={"spread": [ratio, 2.0]})
            return built

        nan_left, nan_right = table(float("nan")), table(float("nan"))
        assert nan_left.rows[0]["ratio"] is not nan_right.rows[0]["ratio"]
        assert nan_left == nan_right
        assert nan_left.to_json() == nan_right.to_json()
        assert table(1.0) == table(1.0)
        assert nan_left != table(1.0) and table(1.0) != nan_left
        assert table(1.0) != table(1.5)
        other = table(float("nan"))
        other.rows[0]["extra"]["spread"][1] = 3.0
        assert nan_left != other
        assert nan_left != ResultTable(name="other", columns=["x", "ratio"], rows=nan_left.rows)

    def test_summarise_values(self):
        summary = summarise_values([1.0, 2.0, 3.0])
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["count"] == 3.0
        assert summarise_values([])["count"] == 0.0


class TestMetrics:
    def run_pair(self):
        sequence = UniformWorkload(31, seed=1).generate(200)
        first = simulate("rotor-push", sequence, n_nodes=31, placement_seed=2, keep_records=True)
        second = simulate(
            "random-push", sequence, n_nodes=31, placement_seed=2, seed=3, keep_records=True
        )
        return first, second

    def test_series_lengths(self):
        first, _ = self.run_pair()
        assert len(access_cost_series(first)) == 200
        assert len(adjustment_cost_series(first)) == 200
        assert len(total_cost_series(first)) == 200

    def test_series_equal_the_record_objects_and_totals(self):
        for result in self.run_pair():
            records = list(result.per_request)
            assert access_cost_series(result) == [r.access_cost for r in records]
            assert adjustment_cost_series(result) == [r.adjustment_cost for r in records]
            assert total_cost_series(result) == [r.total_cost for r in records]
            assert sum(access_cost_series(result)) == result.total_access_cost
            assert sum(adjustment_cost_series(result)) == result.total_adjustment_cost

    def test_series_require_records(self):
        sequence = UniformWorkload(31, seed=1).generate(10)
        result = simulate("rotor-push", sequence, n_nodes=31, placement_seed=2, keep_records=False)
        with pytest.raises(ExperimentError):
            access_cost_series(result)

    def test_cost_difference(self):
        first, second = self.run_pair()
        differences = per_request_cost_difference(first, second, which="access")
        assert len(differences) == 200
        assert all(isinstance(d, int) for d in differences)

    def test_cost_difference_invalid_metric(self):
        first, second = self.run_pair()
        with pytest.raises(ExperimentError):
            per_request_cost_difference(first, second, which="bogus")

    def test_histogram(self):
        histogram = histogram_of_differences([0, 0, 1, -1, 0])
        assert histogram.total == 5
        assert histogram.probability(0) == pytest.approx(0.6)
        assert histogram.mean() == pytest.approx(0.0)
        assert histogram.support() == [-1, 0, 1]
        assert len(histogram.as_rows()) == 3

    def test_moving_average(self):
        assert moving_average([1, 2, 3, 4], window=2) == [1.0, 1.5, 2.5, 3.5]

    def test_moving_average_invalid_window(self):
        with pytest.raises(ExperimentError):
            moving_average([1.0], window=0)


class TestParameterSweep:
    @staticmethod
    def sweep(points, workload, algorithms, n_requests, n_trials, n_nodes=None, bind=()):
        return SweepPlan(
            workload=workload,
            algorithms=algorithms,
            points=points,
            bind=bind,
            n_nodes=n_nodes,
            config=RunConfig(n_requests=n_requests, n_trials=n_trials),
            name="unit_sweep",
        )

    def test_sweep_produces_one_row_per_point_and_algorithm(self):
        table = repro.run(
            self.sweep(
                [{"p": 0.0}, {"p": 0.8}],
                WorkloadSpec.create("temporal", n_elements=63),
                ["rotor-push", "static-oblivious"],
                n_requests=300,
                n_trials=2,
                n_nodes=63,
                bind={"p": "repeat_probability"},
            )
        )
        assert table.name == "unit_sweep" and len(table) == 4
        assert set(table.column("algorithm")) == {"rotor-push", "static-oblivious"}

    def test_sweep_point_tree_size_override(self):
        table = repro.run(
            self.sweep(
                [{"n_nodes": 31}, {"n_nodes": 63}],
                WorkloadSpec.create("uniform"),
                ["static-oblivious"],
                n_requests=100,
                n_trials=1,
                bind={"n_nodes": "n_elements"},
            )
        )
        assert table.column("n_nodes") == [31, 63]

    def test_sweep_without_tree_size_fails(self):
        plan = self.sweep(
            [{"p": 0.5}],
            WorkloadSpec.create("temporal", n_elements=63),
            ["static-oblivious"],
            n_requests=10,
            n_trials=1,
            bind={"p": "repeat_probability"},
        )
        with pytest.raises(PlanError, match="no tree size"):
            repro.run(plan)

    def test_locality_improves_rotor_push_in_sweep(self):
        table = repro.run(
            self.sweep(
                [{"p": 0.0}, {"p": 0.9}],
                WorkloadSpec.create("temporal", n_elements=127),
                ["rotor-push"],
                n_requests=1_500,
                n_trials=2,
                n_nodes=127,
                bind={"p": "repeat_probability"},
            )
        )
        low = table.filter(p=0.0).rows[0]["mean_total_cost"]
        high = table.filter(p=0.9).rows[0]["mean_total_cost"]
        assert high < low
