"""Single-run simulation engine.

The engine glues together a workload, an algorithm and the cost model: it
builds (or receives) an algorithm instance, feeds it a request sequence and
returns the :class:`repro.algorithms.base.RunResult`, enriched with workload
metadata and locality statistics so that downstream experiment code never has
to recompute them.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.algorithms.base import OnlineTreeAlgorithm, RunResult
from repro.algorithms.registry import AlgorithmSpec, make_algorithm
from repro.analysis.entropy import locality_summary
from repro.exceptions import ExperimentError
from repro.types import ElementId
from repro.workloads.base import WorkloadGenerator

__all__ = [
    "simulate",
    "simulate_algorithm_on_sequence",
    "simulate_stream",
    "simulate_workload",
]


def simulate_algorithm_on_sequence(
    algorithm: OnlineTreeAlgorithm,
    sequence: Iterable[ElementId],
    metadata: Optional[dict] = None,
    with_locality_stats: bool = False,
) -> RunResult:
    """Run a pre-built algorithm instance over ``sequence`` and return the result."""
    sequence = list(sequence)
    extra = dict(metadata or {})
    if with_locality_stats:
        extra["locality"] = locality_summary(sequence)
    return algorithm.run(sequence, metadata=extra)


def simulate(
    algorithm_name: Union[str, AlgorithmSpec],
    sequence: Iterable[ElementId],
    n_nodes: Optional[int] = None,
    depth: Optional[int] = None,
    placement_seed: Optional[int] = None,
    seed: Optional[int] = None,
    keep_records: bool = True,
    metadata: Optional[dict] = None,
    with_locality_stats: bool = False,
    **algorithm_kwargs,
) -> RunResult:
    """Build an algorithm by name (or spec) and run it over ``sequence``.

    This is the main entry point used by experiments and examples: it hides
    the registry/factory plumbing and attaches the algorithm parameters to the
    result metadata.  ``algorithm_name`` may be a registry name or an
    :class:`~repro.algorithms.registry.AlgorithmSpec` — the form
    :class:`~repro.sim.runner.TrialPayload` ships, whose params become
    constructor keyword arguments.
    """
    algorithm = make_algorithm(
        algorithm_name,
        n_nodes=n_nodes,
        depth=depth,
        placement_seed=placement_seed,
        seed=seed,
        keep_records=keep_records,
        **algorithm_kwargs,
    )
    extra = dict(metadata or {})
    extra.setdefault("placement_seed", placement_seed)
    extra.setdefault("algorithm_seed", seed)
    return simulate_algorithm_on_sequence(
        algorithm, sequence, metadata=extra, with_locality_stats=with_locality_stats
    )


def simulate_stream(
    algorithm_name: Union[str, AlgorithmSpec],
    chunks: Iterable[Iterable[ElementId]],
    n_nodes: Optional[int] = None,
    depth: Optional[int] = None,
    placement_seed: Optional[int] = None,
    seed: Optional[int] = None,
    keep_records: bool = True,
    metadata: Optional[dict] = None,
    **algorithm_kwargs,
) -> RunResult:
    """Build an algorithm by name (or spec) and serve a chunked request stream.

    The streaming twin of :func:`simulate`: ``chunks`` is an iterable of
    request chunks (typically
    :meth:`repro.workloads.base.WorkloadGenerator.iter_requests`), served as
    they are produced so the full sequence is never materialised.  Pool
    workers use this to turn a shipped :class:`repro.workloads.spec.WorkloadSpec`
    into costs without ever holding a paper-scale sequence.  Each chunk is
    served as one batch; NumPy chunks (see ``iter_requests(...,
    as_array=True)``) reach the C kernel or the static trees' vectorised
    port as arrays, so Zipf draws never round-trip through Python ints.
    """
    algorithm = make_algorithm(
        algorithm_name,
        n_nodes=n_nodes,
        depth=depth,
        placement_seed=placement_seed,
        seed=seed,
        keep_records=keep_records,
        **algorithm_kwargs,
    )
    extra = dict(metadata or {})
    extra.setdefault("placement_seed", placement_seed)
    extra.setdefault("algorithm_seed", seed)
    return algorithm.run_stream(chunks, metadata=extra)


def simulate_workload(
    algorithm_name: str,
    workload: WorkloadGenerator,
    n_requests: int,
    placement_seed: Optional[int] = None,
    seed: Optional[int] = None,
    keep_records: bool = True,
    with_locality_stats: bool = False,
    **algorithm_kwargs,
) -> RunResult:
    """Generate ``n_requests`` from ``workload`` and run ``algorithm_name`` on them.

    The tree size is taken from the workload's universe size, which therefore
    must be a complete-binary-tree size (``2**k - 1``).
    """
    if n_requests < 0:
        raise ExperimentError(f"n_requests must be non-negative, got {n_requests}")
    sequence = workload.generate(n_requests)
    metadata = {"workload": workload.parameters(), "n_requests": len(sequence)}
    return simulate(
        algorithm_name,
        sequence,
        n_nodes=workload.n_elements,
        placement_seed=placement_seed,
        seed=seed,
        keep_records=keep_records,
        metadata=metadata,
        with_locality_stats=with_locality_stats,
        **algorithm_kwargs,
    )
