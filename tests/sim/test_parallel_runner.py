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
from repro.plans import RunConfig, SweepPlan, TrialPlan
from repro.plans.execute import compile_plan
from repro.sim.runner import execute_payloads
from repro.workloads.spec import WorkloadSpec

N_NODES = 63
N_REQUESTS = 400
ALGORITHMS = ["rotor-push", "random-push", "static-oblivious"]


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
    def test_trial_outcomes_identical(self):
        plan = TrialPlan(
            n_nodes=N_NODES,
            workload=WorkloadSpec.create(
                "combined-locality",
                n_elements=N_NODES,
                zipf_exponent=1.4,
                repeat_probability=0.5,
            ),
            algorithms=ALGORITHMS,
            config=RunConfig(n_requests=N_REQUESTS, n_trials=3, base_seed=5),
        )
        payloads = compile_plan(plan).payloads
        serial = execute_payloads(payloads, 1)
        parallel = execute_payloads(payloads, 2)
        assert [result.to_dict() for result in serial] == [
            result.to_dict() for result in parallel
        ]

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
