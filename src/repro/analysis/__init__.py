"""Analysis tools: working sets, entropy, complexity maps, potentials, bounds.

These modules implement the quantitative notions the paper uses to reason
about and evaluate the algorithms:

* :mod:`repro.analysis.working_set` - ranks, the working-set bound and the
  working-set property;
* :mod:`repro.analysis.entropy` - empirical entropy and locality statistics of
  request sequences;
* :mod:`repro.analysis.complexity_map` - the compression-based temporal /
  non-temporal complexity estimates behind Figure 6;
* :mod:`repro.analysis.potential` - the credits of the Theorem 7 / Theorem 11
  amortised analyses, with an empirical per-round checker;
* :mod:`repro.analysis.bounds` - cost lower bounds and empirical competitive
  ratios.
"""

from repro import _lazy_exports

__all__ = [
    "ComplexityPoint",
    "FenwickTree",
    "LowerBounds",
    "PotentialTracker",
    "RANDOM_PUSH_COMPETITIVE_RATIO",
    "RANDOM_PUSH_CREDIT_FACTOR",
    "ROTOR_PUSH_COMPETITIVE_RATIO",
    "ROTOR_PUSH_CREDIT_FACTOR",
    "RoundCheck",
    "compute_lower_bounds",
    "distinct_elements",
    "element_credit",
    "empirical_competitive_ratio",
    "empirical_entropy",
    "flip_rank_weight",
    "frequency_distribution",
    "level_weight",
    "locality_summary",
    "max_working_set_violation",
    "ranks_of_sequence",
    "repeat_fraction",
    "static_optimum_cost",
    "total_credit",
    "trace_complexity",
    "working_set_bound",
    "working_set_property_ratios",
]

#: Each public name's defining module (see :func:`repro._lazy_exports`).
_EXPORTS = {
    "repro.analysis.bounds": (
        "LowerBounds",
        "compute_lower_bounds",
        "empirical_competitive_ratio",
        "static_optimum_cost",
    ),
    "repro.analysis.complexity_map": (
        "ComplexityPoint",
        "trace_complexity",
    ),
    "repro.analysis.entropy": (
        "distinct_elements",
        "empirical_entropy",
        "frequency_distribution",
        "locality_summary",
        "repeat_fraction",
    ),
    "repro.analysis.potential": (
        "RANDOM_PUSH_COMPETITIVE_RATIO",
        "RANDOM_PUSH_CREDIT_FACTOR",
        "ROTOR_PUSH_COMPETITIVE_RATIO",
        "ROTOR_PUSH_CREDIT_FACTOR",
        "PotentialTracker",
        "RoundCheck",
        "element_credit",
        "flip_rank_weight",
        "level_weight",
        "total_credit",
    ),
    "repro.analysis.working_set": (
        "FenwickTree",
        "max_working_set_violation",
        "ranks_of_sequence",
        "working_set_bound",
        "working_set_property_ratios",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
