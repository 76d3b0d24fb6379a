"""Tests for text plotting, report generation and the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.exceptions import ExperimentError
from repro.experiments.plotting import bar_chart, heatmap, histogram_chart, line_chart
from repro.experiments.report import render_report
from repro.sim.metrics import histogram_of_differences
from repro.sim.results import ResultTable


class TestPlotting:
    def test_bar_chart_renders_all_labels(self):
        chart = bar_chart("costs", {"rotor-push": 3.5, "static": -7.0})
        assert "rotor-push" in chart and "static" in chart
        assert "-" in chart  # negative values keep their sign

    def test_bar_chart_empty(self):
        assert "(no data)" in bar_chart("costs", {})

    def test_line_chart_contains_legend_and_axis(self):
        chart = line_chart("sweep", [0.0, 0.5, 1.0], {"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]})
        assert "legend" in chart
        assert "x:" in chart

    def test_line_chart_length_mismatch(self):
        with pytest.raises(ExperimentError):
            line_chart("bad", [0.0, 1.0], {"a": [1.0]})

    def test_line_chart_flat_series(self):
        chart = line_chart("flat", [0, 1], {"a": [2.0, 2.0]})
        assert "flat" in chart

    def test_heatmap_renders_grid(self):
        chart = heatmap("grid", ["p=0", "p=1"], ["a=1", "a=2"], [[1.0, 2.0], [3.0, 4.0]])
        assert "4.00" in chart

    def test_heatmap_shape_validation(self):
        with pytest.raises(ExperimentError):
            heatmap("grid", ["r"], ["c"], [[1.0], [2.0]])
        with pytest.raises(ExperimentError):
            heatmap("grid", ["r"], ["c1", "c2"], [[1.0]])

    def test_histogram_chart(self):
        histogram = histogram_of_differences([0] * 90 + [1] * 9 + [-3])
        chart = histogram_chart("differences", histogram)
        assert "samples: 100" in chart
        assert "+1" in chart and "-3" in chart

    def test_histogram_chart_empty(self):
        assert "(no data)" in histogram_chart("empty", histogram_of_differences([]))


class TestReportRendering:
    def test_render_report_includes_tables_and_expectations(self):
        table = ResultTable(name="fig3", columns=["p", "algorithm", "mean_total_cost"])
        table.add_row(p=0.0, algorithm="rotor-push", mean_total_cost=5.0)
        histogram = histogram_of_differences([0, 0, 1])
        results = {
            "fig3": table,
            "fig5b": (histogram, {"mean_difference": 0.1, "max_abs_difference": 1.0, "n_samples": 3.0}),
        }
        report = render_report(results, scale="tiny")
        assert "# Experiment results" in report
        assert "Figure 3" in report
        assert "rotor-push" in report
        assert "Figure 5b" in report
        assert "mean difference" in report

    def test_render_report_skips_missing_figures(self):
        report = render_report({}, scale="tiny")
        assert "Figure 4" not in report


class TestCLI:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        for command in (["list"], ["demo"], ["run", "q2"], ["report"]):
            assert parser.parse_args(command).command == command[0]

    def test_experiment_command_is_gone(self):
        # ``repro run <name> [--scale S]`` runs the paper experiments and
        # ``repro report`` runs all of them
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "q2"])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "rotor-push" in output
        assert "paper" in output

    def test_demo_command(self, capsys):
        assert main(["demo", "--nodes", "63", "--requests", "300", "--trials", "1"]) == 0
        output = capsys.readouterr().out
        assert "rotor-push" in output
        assert "static-opt" in output

    def test_run_table1_command_with_csv(self, capsys, tmp_path):
        assert main(["run", "table1", "--csv-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "table1_properties" in output
        assert (tmp_path / "table1_properties.csv").exists()

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])
