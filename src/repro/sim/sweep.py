"""Parameter sweeps over workload and tree parameters.

Every figure of the paper's evaluation is a sweep: over tree sizes (Q1), over
the temporal-locality parameter ``p`` (Q2), over the Zipf exponent ``a`` (Q3)
or over the two-dimensional ``(p, a)`` grid (Q4).  :class:`ParameterSweep`
captures that pattern once: it takes a list of parameter points, a workload
factory parameterised by the point, the algorithms to compare, and produces a
:class:`repro.sim.results.ResultTable` with one row per (point, algorithm).
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ExperimentError
from repro.resilience.retry import RetryPolicy
from repro.sim.results import ResultTable
from repro.sim.runner import _UNSET, TrialPayload, TrialRunner, execute_payloads
from repro.workloads.base import WorkloadGenerator, check_chunk_size
from repro.workloads.spec import WorkloadSpec

__all__ = ["SweepPoint", "ParameterSweep"]

#: A sweep point is a dictionary of named parameter values.
SweepPoint = Dict[str, object]

#: Factory building a workload (or a spec) for a sweep point and a trial seed.
PointWorkloadFactory = Callable[[SweepPoint, int], Union[WorkloadGenerator, WorkloadSpec]]


class ParameterSweep:
    """Run a set of algorithms over a list of parameter points.

    Parameters
    ----------
    points:
        The parameter points (each a dict of named values, e.g.
        ``{"p": 0.3}`` or ``{"p": 0.5, "a": 1.6}``).  Points may also carry a
        per-point ``n_nodes`` entry, which overrides the sweep-wide tree size
        (used by the Q1 size sweep).
    workload_factory:
        Callable building the workload for a given point and trial seed.
    algorithms:
        Registry names of the algorithms to run.
    n_nodes:
        Default tree size for points that do not carry their own.
    config:
        The run shape as a :class:`repro.plans.RunConfig` (preferred);
        mutually exclusive with the loose keyword arguments below.  The
        declarative :class:`repro.plans.SweepPlan` executes through this
        path.
    n_requests, n_trials, base_seed:
        Passed to the underlying :class:`repro.sim.runner.TrialRunner`.
    n_jobs:
        Worker processes for the fan-out.  All (point, trial, algorithm) work
        items of the sweep are flattened into a single pool pass, so the
        parallelism is not throttled by small per-point trial counts; results
        are reassembled in order and bit-identical to a serial run.
    chunk_size:
        Streaming chunk size for spec-shipped workloads (memory/batching knob
        only; never changes the generated stream).
    """

    def __init__(
        self,
        points: Sequence[SweepPoint],
        workload_factory: PointWorkloadFactory,
        algorithms: Sequence[str],
        n_nodes: Optional[int] = None,
        n_requests: int = _UNSET,
        n_trials: int = _UNSET,
        base_seed: int = _UNSET,
        algorithm_kwargs: Optional[Dict[str, dict]] = None,
        n_jobs: int = _UNSET,
        chunk_size: Optional[int] = _UNSET,
        config=None,
    ) -> None:
        if not points:
            raise ExperimentError("a sweep needs at least one parameter point")
        if not algorithms:
            raise ExperimentError("a sweep needs at least one algorithm")
        if config is not None:
            explicit = [
                name
                for name, value in (
                    ("n_requests", n_requests),
                    ("n_trials", n_trials),
                    ("base_seed", base_seed),
                    ("n_jobs", n_jobs),
                    ("chunk_size", chunk_size),
                )
                if value is not _UNSET
            ]
            if explicit:
                raise ExperimentError(
                    "ParameterSweep: pass either config= or the loose keyword "
                    f"arguments {explicit}, not both"
                )
            n_requests = config.n_requests
            n_trials = config.n_trials
            base_seed = config.base_seed
            n_jobs = config.n_jobs
            chunk_size = config.chunk_size
            self.keep_records = config.keep_records
            self.worker_timeout = getattr(config, "worker_timeout", None)
            self.max_retries = getattr(config, "max_retries", 2)
            self.cache_dir = getattr(config, "cache_dir", None)
            self.executor = getattr(config, "executor", None)
        else:
            n_requests = 10_000 if n_requests is _UNSET else n_requests
            n_trials = 3 if n_trials is _UNSET else n_trials
            base_seed = 0 if base_seed is _UNSET else base_seed
            n_jobs = 1 if n_jobs is _UNSET else n_jobs
            chunk_size = None if chunk_size is _UNSET else chunk_size
            self.keep_records = False
            self.worker_timeout = None
            self.max_retries = 2
            self.cache_dir = None
            self.executor = None
        self.points = [dict(point) for point in points]
        self.workload_factory = workload_factory
        self.algorithms = list(algorithms)
        self.n_nodes = n_nodes
        self.n_requests = n_requests
        self.n_trials = n_trials
        self.base_seed = base_seed
        self.algorithm_kwargs = algorithm_kwargs or {}
        self.n_jobs = n_jobs
        if chunk_size is not None:
            check_chunk_size(int(chunk_size))
        self.chunk_size = chunk_size

    def _point_runner(self, n_nodes: int) -> TrialRunner:
        """Build the per-point runner without tripping the legacy-knob shim."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            return TrialRunner(
                n_nodes=n_nodes,
                n_requests=self.n_requests,
                n_trials=self.n_trials,
                base_seed=self.base_seed,
                keep_records=self.keep_records,
                chunk_size=self.chunk_size,
            )

    def _point_columns(self) -> List[str]:
        columns: List[str] = []
        for point in self.points:
            for key in point:
                if key not in columns:
                    columns.append(key)
        return columns

    def build_payloads(self) -> Tuple[List[TrialPayload], List[Tuple[SweepPoint, int]]]:
        """Phase 1: describe every (point, trial, algorithm) work item.

        The whole sweep is flattened into one payload list so a single pool
        pass can load-balance across points.  Spec-able workloads cross as
        specs — no request sequence is ever materialised in the parent
        process, so phase 1 is O(points × trials) small objects instead of
        O(points × trials × n_requests) resident integers.

        Returns the flat payload list plus ``(point, n_payloads)`` pairs for
        reassembly.
        """
        all_payloads: List[TrialPayload] = []
        point_chunks: List[Tuple[SweepPoint, int]] = []
        for point in self.points:
            n_nodes = int(point.get("n_nodes", self.n_nodes or 0))
            if n_nodes <= 0:
                raise ExperimentError(
                    f"sweep point {point} has no tree size and no default was given"
                )
            runner = self._point_runner(n_nodes)
            sources = runner.trial_sources(
                lambda seed, _point=point: self.workload_factory(_point, seed)
            )
            payloads = runner.build_payloads(
                self.algorithms, sources, self.algorithm_kwargs
            )
            all_payloads.extend(payloads)
            point_chunks.append((point, len(payloads)))
        return all_payloads, point_chunks

    def run(self, table_name: str = "sweep") -> ResultTable:
        """Execute the sweep and return a result table.

        The table has one row per (point, algorithm) with the mean per-request
        access, adjustment and total cost over the trials.
        """
        point_columns = self._point_columns()
        columns = point_columns + [
            "algorithm",
            "mean_access_cost",
            "mean_adjustment_cost",
            "mean_total_cost",
            "n_trials",
        ]
        table = ResultTable(name=table_name, columns=columns)

        all_payloads, point_chunks = self.build_payloads()

        # Phase 2: execute (serially or on the pool) and aggregate per point.
        all_results = execute_payloads(
            all_payloads,
            self.n_jobs,
            worker_timeout=self.worker_timeout,
            retry=RetryPolicy.for_config(self),
            cache_dir=self.cache_dir,
            executor=self.executor,
        )
        cursor = 0
        for point, n_payloads in point_chunks:
            payloads = all_payloads[cursor : cursor + n_payloads]
            results = all_results[cursor : cursor + n_payloads]
            cursor += n_payloads
            outcomes = TrialRunner.collect(self.algorithms, payloads, results)
            aggregated = TrialRunner.aggregate(outcomes)
            for algorithm in self.algorithms:
                summary = aggregated[algorithm]
                row: Dict[str, object] = {key: point.get(key) for key in point_columns}
                row.update(
                    {
                        "algorithm": algorithm,
                        "mean_access_cost": summary.mean_access_cost,
                        "mean_adjustment_cost": summary.mean_adjustment_cost,
                        "mean_total_cost": summary.mean_total_cost,
                        "n_trials": summary.n_trials,
                    }
                )
                table.add_row(**row)
        return table
