"""Parallel trial execution: n_jobs > 1 must be bit-identical to serial runs.

The acceptance contract of the parallel subsystem is determinism: per-trial
seeds are pure functions of the trial index and results are reassembled in
payload order, so fanning work out over a process pool must change wall-clock
time only, never a single output byte.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.sim.parallel import map_ordered, resolve_n_jobs
import repro
from repro.plans import RunConfig, SweepPlan
from repro.sim.runner import TrialRunner, compare_algorithms
from repro.workloads.spec import WorkloadSpec
from repro.workloads.composite import CombinedLocalityWorkload

N_NODES = 63
N_REQUESTS = 400
ALGORITHMS = ["rotor-push", "random-push", "static-oblivious"]


def _workload_factory(seed: int) -> CombinedLocalityWorkload:
    return CombinedLocalityWorkload(N_NODES, 1.4, 0.5, seed=seed)


class TestResolveNJobs:
    def test_default_is_serial(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1

    def test_positive_passthrough(self):
        assert resolve_n_jobs(3) == 3

    def test_negative_means_all_cpus(self):
        assert resolve_n_jobs(-1) >= 1

    def test_zero_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_n_jobs(0)


class TestMapOrdered:
    def test_serial_preserves_order(self):
        assert map_ordered(abs, [-3, 1, -2], n_jobs=1) == [3, 1, 2]

    def test_parallel_preserves_order(self):
        assert map_ordered(abs, list(range(-8, 0)), n_jobs=2) == list(range(8, 0, -1))


class TestParallelDeterminism:
    def test_trial_runner_outcomes_identical(self):
        def outcomes(n_jobs):
            runner = TrialRunner(
                N_NODES,
                RunConfig(n_requests=N_REQUESTS, n_trials=3, base_seed=5, n_jobs=n_jobs),
            )
            return runner.run(ALGORITHMS, _workload_factory)

        serial = outcomes(1)
        parallel = outcomes(2)
        assert serial.keys() == parallel.keys()
        for name in serial:
            assert [t.trial for t in serial[name]] == [t.trial for t in parallel[name]]
            for left, right in zip(serial[name], parallel[name]):
                assert left.result.to_dict() == right.result.to_dict()

    def test_compare_algorithms_identical(self):
        def aggregate(n_jobs):
            return compare_algorithms(
                ALGORITHMS,
                _workload_factory,
                n_nodes=N_NODES,
                config=RunConfig(n_requests=N_REQUESTS, n_trials=2, n_jobs=n_jobs),
            )

        serial = aggregate(1)
        parallel = aggregate(2)
        for name in serial:
            assert serial[name].access_cost == parallel[name].access_cost
            assert serial[name].adjustment_cost == parallel[name].adjustment_cost
            assert serial[name].total_cost == parallel[name].total_cost

    def test_parameter_sweep_table_byte_identical(self):
        def table(n_jobs):
            sweep = SweepPlan(
                workload=WorkloadSpec.create("temporal", n_elements=N_NODES),
                algorithms=ALGORITHMS,
                points=[{"p": 0.0}, {"p": 0.6}],
                bind={"p": "repeat_probability"},
                n_nodes=N_NODES,
                config=RunConfig(
                    n_requests=N_REQUESTS, n_trials=2, base_seed=42, n_jobs=n_jobs
                ),
                name="parallel-check",
            )
            return repro.run(sweep)

        assert table(1).to_json() == table(2).to_json()
