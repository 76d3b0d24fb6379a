"""Experiment scales and shared configuration.

The paper's experiments use trees of 65,535 nodes, one million requests and ten
repetitions per configuration.  Running that in pure Python takes hours, so
every experiment in this package accepts a *scale* selecting how closely to
approach the paper's parameters:

========  ============  ==============  ========  =================================
scale     tree nodes    requests        trials    intended use
========  ============  ==============  ========  =================================
tiny      255           3,000           2         unit tests, CI, quick smoke runs
small     1,023         20,000          3         benchmarks, local iteration
default   4,095         100,000         3         overnight-quality results
paper     65,535        1,000,000       10        full reproduction of the figures
========  ============  ==============  ========  =================================

All scales exercise exactly the same code paths; the qualitative shape of every
figure (which algorithm wins, where crossovers happen) is stable across scales,
which is itself one of the paper's Q1 findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.exceptions import ExperimentError

if TYPE_CHECKING:
    from repro.plans.model import RunConfig

__all__ = ["ExperimentScale", "SCALES", "get_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Parameters controlling the size of every experiment at one scale.

    Attributes
    ----------
    name:
        Scale identifier (``tiny`` / ``small`` / ``default`` / ``paper``).
    n_nodes:
        Tree size used by the single-size experiments (Q2-Q4).
    n_requests:
        Requests per trial.
    n_trials:
        Number of repetitions (the paper uses 10).
    q1_sizes:
        Tree sizes of the Q1 size sweep.
    temporal_probabilities:
        The Q2 grid of repeat probabilities ``p``.
    zipf_exponents:
        The Q3 grid of Zipf exponents ``a``.
    q4_probabilities, q4_exponents:
        The Q4 grid (coarser than Q2/Q3 in the paper).
    corpus_scale:
        Multiplier applied to the synthetic corpus book lengths for Q5.
    base_seed:
        Base random seed shared by all experiments at this scale.
    """

    name: str
    n_nodes: int
    n_requests: int
    n_trials: int
    q1_sizes: List[int] = field(default_factory=list)
    temporal_probabilities: List[float] = field(
        default_factory=lambda: [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9]
    )
    zipf_exponents: List[float] = field(
        default_factory=lambda: [1.001, 1.3, 1.6, 1.9, 2.2]
    )
    q4_probabilities: List[float] = field(
        default_factory=lambda: [0.0, 0.25, 0.5, 0.75, 0.9]
    )
    q4_exponents: List[float] = field(
        default_factory=lambda: [1.001, 1.3, 1.6, 1.9, 2.2]
    )
    corpus_scale: float = 1.0
    base_seed: int = 42

    def run_config(
        self,
        n_requests: Optional[int] = None,
        n_trials: Optional[int] = None,
        keep_records: bool = False,
        n_jobs: int = 1,
    ) -> RunConfig:
        """Return this scale's run shape as a :class:`repro.plans.RunConfig`.

        The bridge between the scale table and the plan layer: every q1–q5
        plan builder derives its stage configs from here, overriding only
        what the experiment itself varies (e.g. the per-size request count
        of the Q1 sweep).
        """
        from repro.plans.model import RunConfig

        return RunConfig(
            n_requests=self.n_requests if n_requests is None else n_requests,
            n_trials=self.n_trials if n_trials is None else n_trials,
            base_seed=self.base_seed,
            keep_records=keep_records,
            n_jobs=n_jobs,
        )


SCALES: Dict[str, ExperimentScale] = {
    "tiny": ExperimentScale(
        name="tiny",
        n_nodes=255,
        n_requests=3_000,
        n_trials=2,
        q1_sizes=[63, 255],
        corpus_scale=0.05,
    ),
    "small": ExperimentScale(
        name="small",
        n_nodes=1_023,
        n_requests=20_000,
        n_trials=3,
        q1_sizes=[255, 1_023, 4_095],
        corpus_scale=0.2,
    ),
    "default": ExperimentScale(
        name="default",
        n_nodes=4_095,
        n_requests=100_000,
        n_trials=3,
        q1_sizes=[255, 1_023, 4_095, 16_383],
        corpus_scale=0.5,
    ),
    "paper": ExperimentScale(
        name="paper",
        n_nodes=65_535,
        n_requests=1_000_000,
        n_trials=10,
        q1_sizes=[255, 1_023, 4_095, 16_383, 65_535],
        corpus_scale=1.0,
    ),
}


def get_scale(scale: str) -> ExperimentScale:
    """Return the named scale, raising a helpful error for unknown names."""
    try:
        return SCALES[scale]
    except KeyError:
        raise ExperimentError(
            f"unknown scale {scale!r}; available: {', '.join(SCALES)}"
        ) from None
