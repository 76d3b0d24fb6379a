"""Single-run simulation engine.

The engine glues together an algorithm and the cost model: it serves a
request sequence — whole or as a chunked stream — for an algorithm named by
registry name (or spec) and returns the
:class:`repro.algorithms.base.RunResult` with the seeds attached as
metadata.  A trial is served on one seeded kernel tree when
:func:`repro.algorithms.registry.seeded_serving` admits it, and on an
algorithm instance built by name, the Python reference, otherwise.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.algorithms.base import RunResult
from repro.algorithms.registry import AlgorithmSpec, make_algorithm, seeded_serving
from repro.core.cost import RequestRecordColumns
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
    constructor keyword arguments.  The sequence is served as one chunk of
    :func:`simulate_stream`, so it takes the same path.
    """
    return simulate_stream(
        algorithm_name, (list(sequence),), n_nodes, depth, placement_seed, seed,
        keep_records, metadata, **algorithm_kwargs,
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
    served as one batch.  A chunk is a list, or the ``array('q')`` the
    kernel drew it into, which the seeded path reads where it lies.

    Without extra constructor arguments or ``depth``, a spec and seeds that
    :func:`repro.algorithms.registry.seeded_serving` admits (every paper
    algorithm on a tree of at least 16 nodes with an ``int`` placement seed,
    and an ``int`` algorithm seed for Random-Push, the kernel loaded and its
    random-number checks passed) build no algorithm: the stream is one
    :meth:`~repro.algorithms.cascade_kernel.CascadeKernel.serve_seeded`
    call, which also fills the per-request record columns when
    ``keep_records`` is set, and the result is the one the built algorithm
    returns, with the same metadata.  Static-Opt with records is the
    exception: its levels are known only once the whole sequence is counted.
    Everything else builds the algorithm and serves through
    :meth:`~repro.algorithms.base.OnlineTreeAlgorithm.run_stream`, the
    reference, which serves every request of every chunk through the
    algorithm's ``_adjust`` (an ``array('q')`` as one ``tolist()``).
    """
    extra = dict(metadata or {})
    extra.setdefault("placement_seed", placement_seed)
    extra.setdefault("algorithm_seed", seed)
    serving = None
    if depth is None and not algorithm_kwargs:
        spec = AlgorithmSpec.coerce(algorithm_name)
        serving = seeded_serving(spec, n_nodes, placement_seed, seed)
    if serving is None or (keep_records and serving[1] == "static_opt"):
        algorithm = make_algorithm(
            algorithm_name,
            n_nodes=n_nodes,
            depth=depth,
            placement_seed=placement_seed,
            seed=seed,
            keep_records=keep_records,
            **algorithm_kwargs,
        )
        return algorithm.run_stream(chunks, metadata=extra)
    kernel, function = serving
    records = RequestRecordColumns()
    served, access_total, adjustment_total = kernel.serve_seeded(
        function, n_nodes, placement_seed, seed, chunks,
        records if keep_records else None,
    )
    return RunResult(
        algorithm=spec.name,
        n_nodes=n_nodes,
        n_requests=served,
        total_access_cost=access_total,
        total_adjustment_cost=adjustment_total,
        per_request=records,
        metadata=extra,
    )
