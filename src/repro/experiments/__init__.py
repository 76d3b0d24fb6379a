"""Experiment harnesses reproducing the paper's evaluation (Section 6).

One module per research question / figure:

* :mod:`repro.experiments.q1_network_size` - Figures 2a/2b;
* :mod:`repro.experiments.q2_temporal` - Figure 3;
* :mod:`repro.experiments.q3_spatial` - Figure 4;
* :mod:`repro.experiments.q4_combined` - Figures 5a/5b;
* :mod:`repro.experiments.q5_corpus` - Figures 6/7;
* :mod:`repro.experiments.table1_properties` - Table 1 and the analytical
  results (Lemma 8, Theorem 7) checked empirically;
* :mod:`repro.experiments.multisource` - the multi-source network scenario
  (per-source self-adjusting trees routing a spec-described traffic trace);
* :mod:`repro.experiments.datacenter` - the reconfigurable-datacenter
  scenario (one network stage per tree algorithm);
* :mod:`repro.experiments.adversarial` - the adversarial constructions
  (Lemma 8, the MTF lower bound, Theorem 7) as spec-shipped payloads;
* :mod:`repro.experiments.corpus_pipeline` - the raw-text corpus pipeline
  on ``corpus`` recipe specs (complexity map plus per-dataset costs);
* :mod:`repro.experiments.sweep_series` - plot series and workload
  entropies of the one-parameter sweeps (Figures 3 and 4);
* :mod:`repro.experiments.report` - runs everything and writes EXPERIMENTS.md.

Every experiment is a declarative plan: the ``build_*_plan`` functions return
:class:`repro.plans.ExperimentPlan` / :class:`repro.plans.SweepPlan` objects
(pure data, JSON round-trippable — the shipped golden copies live under
``src/repro/experiments/plans/``), executed through :func:`repro.run` (or
``repro run <name> [--scale S]``).  Every name loads on first access
(PEP 562).  The modules that register the experiment-specific plan
assemblers (``q1_panel``, ``q4_wireframe``, ``q4_histogram``,
``q5_complexity_map``, ``q5_costs``, ``table1``, ``datacenter``,
``adversarial``, ``corpus_pipeline``) are imported by the executor the first
time it looks an assembler up.
"""

from repro import _lazy_exports

__all__ = [
    "ExperimentScale",
    "SCALES",
    "build_adversarial_plan",
    "build_corpus_pipeline_plan",
    "build_datacenter_plan",
    "build_multisource_plan",
    "build_q1_plan",
    "build_q1_spatial_plan",
    "build_q1_temporal_plan",
    "build_q2_plan",
    "build_q3_plan",
    "build_q4_histogram_plan",
    "build_q4_plan",
    "build_q4_wireframe_plan",
    "build_q5_complexity_plan",
    "build_q5_costs_plan",
    "build_q5_plan",
    "build_table1_plan",
    "datacenter_traffic",
    "generate_report",
    "get_scale",
    "render_report",
    "run_all_experiments",
    "run_mtf_lower_bound",
    "run_potential_check",
    "run_table1",
    "run_working_set_violation",
    "run_ws_bound_ratios",
]

#: Each public name's defining module (see :func:`repro._lazy_exports`).
_EXPORTS = {
    "repro.experiments.adversarial": ("build_adversarial_plan",),
    "repro.experiments.config": ("SCALES", "ExperimentScale", "get_scale"),
    "repro.experiments.corpus_pipeline": ("build_corpus_pipeline_plan",),
    "repro.experiments.datacenter": ("build_datacenter_plan", "datacenter_traffic"),
    "repro.experiments.multisource": ("build_multisource_plan",),
    "repro.experiments.q1_network_size": (
        "build_q1_plan",
        "build_q1_spatial_plan",
        "build_q1_temporal_plan",
    ),
    "repro.experiments.q2_temporal": ("build_q2_plan",),
    "repro.experiments.q3_spatial": ("build_q3_plan",),
    "repro.experiments.q4_combined": (
        "build_q4_histogram_plan",
        "build_q4_plan",
        "build_q4_wireframe_plan",
    ),
    "repro.experiments.q5_corpus": (
        "build_q5_complexity_plan",
        "build_q5_costs_plan",
        "build_q5_plan",
    ),
    "repro.experiments.report": (
        "generate_report",
        "render_report",
        "run_all_experiments",
    ),
    "repro.experiments.table1_properties": (
        "build_table1_plan",
        "run_mtf_lower_bound",
        "run_potential_check",
        "run_table1",
        "run_working_set_violation",
        "run_ws_bound_ratios",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
