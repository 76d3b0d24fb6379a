"""Single-run simulation engine.

The engine glues together an algorithm and the cost model: it builds an
algorithm instance by name (or spec), feeds it a request sequence — whole or
as a chunked stream — and returns the :class:`repro.algorithms.base.RunResult`
with the seeds attached as metadata.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.algorithms.base import RunResult
from repro.algorithms.registry import AlgorithmSpec, make_algorithm
from repro.types import ElementId

__all__ = ["simulate", "simulate_stream"]


def simulate(
    algorithm_name: Union[str, AlgorithmSpec],
    sequence: Iterable[ElementId],
    n_nodes: Optional[int] = None,
    depth: Optional[int] = None,
    placement_seed: Optional[int] = None,
    seed: Optional[int] = None,
    keep_records: bool = True,
    metadata: Optional[dict] = None,
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
    return algorithm.run(list(sequence), metadata=extra)


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

