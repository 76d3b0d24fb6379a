"""Markdown report generation (EXPERIMENTS.md).

Running the full experiment suite produces one table per paper figure; this
module turns those tables into the Markdown report that records, side by side,
what the paper reports and what this reproduction measures.  The generated
document is written to ``EXPERIMENTS.md`` by the command-line interface and by
``examples/regenerate_experiments.py``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments import q1_network_size, q2_temporal, q3_spatial, q4_combined, q5_corpus
from repro.experiments.config import get_scale
from repro.experiments.plotting import heatmap, histogram_chart
from repro.experiments.table1_properties import build_table1_plan
from repro.plans.execute import run as run_plan
from repro.sim.results import ResultTable

__all__ = [
    "build_report_plans",
    "run_all_experiments",
    "render_report",
    "generate_report",
]


def build_report_plans(
    scale: str = "tiny",
    n_jobs: int = 1,
) -> Dict[str, object]:
    """Build the full evaluation as plans, keyed by figure/table identifier.

    One declarative plan per report section — the exact objects
    :func:`run_all_experiments` executes, exposed so callers can dump, diff
    or reshape the whole evaluation as data.
    """
    return {
        "fig2a": q1_network_size.build_q1_temporal_plan(scale, n_jobs=n_jobs),
        "fig2b": q1_network_size.build_q1_spatial_plan(scale, n_jobs=n_jobs),
        "fig3": q2_temporal.build_q2_plan(scale, n_jobs=n_jobs),
        "fig4": q3_spatial.build_q3_plan(scale, n_jobs=n_jobs),
        "fig5a": q4_combined.build_q4_wireframe_plan(scale, n_jobs=n_jobs),
        "fig5b": q4_combined.build_q4_histogram_plan(scale, n_jobs=n_jobs),
        "fig6": q5_corpus.build_q5_complexity_plan(scale),
        "fig7": q5_corpus.build_q5_costs_plan(scale, n_jobs=n_jobs),
        "table1": build_table1_plan(),
    }


def run_all_experiments(
    scale: str = "tiny",
    n_jobs: int = 1,
) -> Dict[str, object]:
    """Run every experiment of the evaluation at the given scale.

    Returns a dictionary keyed by figure/table identifier; values are
    :class:`repro.sim.results.ResultTable` objects except for the Figure 5b
    histogram, which is a ``(histogram, summary)`` tuple.  Each entry is a
    declarative plan (:func:`build_report_plans`) executed through
    :func:`repro.run`; ``n_jobs`` lands in every plan's
    :class:`repro.plans.RunConfig` (a throughput knob only — results are
    identical for every value).
    """
    plans = build_report_plans(scale, n_jobs=n_jobs)
    return {key: run_plan(plan) for key, plan in plans.items()}


def _table_markdown(table: ResultTable, float_digits: int = 3) -> str:
    header = "| " + " | ".join(table.columns) + " |"
    separator = "| " + " | ".join("---" for _ in table.columns) + " |"
    lines = [header, separator]
    for row in table.rows:
        cells = []
        for column in table.columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:.{float_digits}f}")
            else:
                cells.append(str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


_PAPER_EXPECTATIONS = {
    "fig2a": "Benefit of self-adjustment (cost difference vs Static-Oblivious, p = 0.9) "
    "grows with the tree size; self-adjusting algorithms end up cheaper on larger trees.",
    "fig2b": "Same trend under Zipf a = 2.2 spatial locality.",
    "fig3": "Rotor-Push and Random-Push are the cheapest self-adjusting algorithms; "
    "they beat Static-Opt beyond roughly p = 0.75; Max-Push's adjustment cost stays high.",
    "fig4": "All self-adjusting algorithms exploit spatial locality; Static-Opt remains "
    "the best overall; adjustment pays off vs Static-Oblivious from about a = 1.6.",
    "fig5a": "Combined temporal+spatial locality gives the largest cost reductions of "
    "Rotor-Push over Static-Oblivious (most negative differences at high p and a).",
    "fig5b": "Per-request access-cost difference between Rotor-Push and Random-Push is "
    "concentrated near zero (paper: mean -0.0003, |difference| <= 4).",
    "fig6": "Corpus datasets show moderate temporal complexity (0.3-0.5) and high "
    "non-temporal complexity (0.8-1.0).",
    "fig7": "On corpus data Rotor-Push and Random-Push are the best self-adjusting "
    "algorithms with access cost close to Static-Opt; adjustment cost remains visible.",
    "table1": "Rotor-Push: deterministic, 12-competitive, no working-set property "
    "(access cost linear in working-set size on the Lemma 8 input); Random-Push: "
    "randomised, 16-competitive, working-set property holds.",
}


def render_report(results: Dict[str, object], scale: str = "tiny") -> str:
    """Render the experiment results as a Markdown document."""
    config = get_scale(scale)
    lines = [
        "# Experiment results",
        "",
        "Reproduction of the evaluation of *Deterministic Self-Adjusting Tree Networks "
        "Using Rotor Walks* (ICDCS 2022).",
        "",
        f"Scale: `{config.name}` (tree of {config.n_nodes} nodes, {config.n_requests} "
        f"requests per trial, {config.n_trials} trials; the paper uses 65,535 nodes, "
        "10^6 requests, 10 trials).  See DESIGN.md for the scale table and the "
        "synthetic-corpus substitution.",
        "",
    ]
    order = ["table1", "fig2a", "fig2b", "fig3", "fig4", "fig5a", "fig5b", "fig6", "fig7"]
    titles = {
        "table1": "Table 1 - algorithm properties",
        "fig2a": "Figure 2a - Q1 size sweep, temporal locality p = 0.9",
        "fig2b": "Figure 2b - Q1 size sweep, Zipf a = 2.2",
        "fig3": "Figure 3 - Q2 temporal locality sweep",
        "fig4": "Figure 4 - Q3 spatial locality sweep",
        "fig5a": "Figure 5a - Q4 combined locality (Rotor-Push minus Static-Oblivious)",
        "fig5b": "Figure 5b - Q4 Rotor-Push vs Random-Push per-request difference",
        "fig6": "Figure 6 - Q5 complexity map of the corpus datasets",
        "fig7": "Figure 7 - Q5 per-book algorithm costs",
    }
    for key in order:
        if key not in results:
            continue
        lines.append(f"## {titles[key]}")
        lines.append("")
        lines.append(f"**Paper:** {_PAPER_EXPECTATIONS[key]}")
        lines.append("")
        value = results[key]
        if key == "fig5b":
            histogram, summary = value
            lines.append(
                f"**Measured:** mean difference {summary['mean_difference']:+.5f}, "
                f"maximum |difference| {summary['max_abs_difference']:.0f} over "
                f"{int(summary['n_samples'])} request pairs."
            )
            lines.append("")
            lines.append("```")
            lines.append(histogram_chart("access cost difference (Rotor - Random)", histogram))
            lines.append("```")
        elif key == "fig5a":
            table = value
            lines.append("**Measured:**")
            lines.append("")
            lines.append(_table_markdown(table))
            probabilities, exponents, grid = q4_combined.wireframe_grid(table)
            lines.append("")
            lines.append("```")
            lines.append(
                heatmap(
                    "difference (rows: p, columns: a)",
                    probabilities,
                    exponents,
                    grid,
                )
            )
            lines.append("```")
        else:
            lines.append("**Measured:**")
            lines.append("")
            lines.append(_table_markdown(value))
        lines.append("")
    return "\n".join(lines)


def generate_report(
    scale: str = "tiny",
    path: Optional[str] = None,
    n_jobs: int = 1,
) -> str:
    """Run all experiments and render (optionally write) the Markdown report."""
    results = run_all_experiments(scale, n_jobs=n_jobs)
    report = render_report(results, scale)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(report)
    return report
