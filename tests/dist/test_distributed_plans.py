"""Plans through the distributed executor: byte-identity, kills, warm resume.

The acceptance pins of the distributed-executor PR at the plan level:

* every plan family (trial, network, a network study) run through
  ``repro.run(plan, executor="tcp://...")`` produces exactly the serial
  table — including runs where a worker daemon is killed mid-campaign
  (``worker_crash``, real subprocess workers) or a lease expires
  (``worker_hang``);
* a warm-cache resume through the remote executor re-executes zero
  payloads: the whole campaign is served from the checkpoint store and the
  fleet is never even contacted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.network.traffic import TrafficSpec
from repro.plans import (
    ExperimentPlan,
    NetworkPlan,
    RunConfig,
    TrialPlan,
    dumps,
    last_run_stats,
    loads,
)
from repro.dist.worker import WorkerServer
from repro.resilience import FaultSpec
from repro.resilience.faults import FAULT_SPEC_ENV
from repro.workloads.spec import WorkloadSpec

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def trial_plan(algorithms=("rotor-push", "random-push"), **config_kwargs) -> TrialPlan:
    config_kwargs.setdefault("n_requests", 120)
    config_kwargs.setdefault("n_trials", 2)
    config_kwargs.setdefault("base_seed", 5)
    return TrialPlan(
        name="dist-trial",
        n_nodes=31,
        workload=WorkloadSpec.create(
            "combined-locality",
            n_elements=31,
            zipf_exponent=1.4,
            repeat_probability=0.4,
        ),
        algorithms=algorithms,
        config=RunConfig(**config_kwargs),
    )


def network_plan(**config_kwargs) -> NetworkPlan:
    config_kwargs.setdefault("n_requests", 60)
    config_kwargs.setdefault("n_trials", 2)
    return NetworkPlan(
        name="dist-network",
        traffic=TrafficSpec.create(
            31,
            {
                source: WorkloadSpec.create("zipf", n_elements=31, exponent=1.6)
                for source in range(2)
            },
        ),
        algorithm="rotor-push",
        config=RunConfig(**config_kwargs),
    )


def network_study_plan(**config_kwargs) -> ExperimentPlan:
    """A source-count study: one network stage per point, as one table."""
    config_kwargs.setdefault("n_requests", 40)
    config_kwargs.setdefault("n_trials", 1)
    config_kwargs.setdefault("base_seed", 5)
    stages = tuple(
        (
            f"k={k}",
            NetworkPlan(
                name=f"dist-study-k{k}",
                traffic=TrafficSpec.create(
                    31,
                    {
                        source: WorkloadSpec.create("zipf", n_elements=31, exponent=1.6)
                        for source in range(k)
                    },
                ),
                algorithm="rotor-push",
                config=RunConfig(**config_kwargs),
            ),
        )
        for k in (1, 3)
    )
    return ExperimentPlan(name="dist-study", stages=stages, assembler="trace_costs")


@pytest.fixture()
def fleet():
    workers = [WorkerServer().start(), WorkerServer().start()]
    yield workers
    for worker in workers:
        worker.stop()


def fleet_address(workers, options: str = "") -> str:
    hosts = ",".join(f"{w.host}:{w.port}" for w in workers)
    return f"tcp://{hosts}{options}"


class TestByteIdentity:
    @pytest.mark.parametrize(
        "make_plan", [trial_plan, network_plan, network_study_plan]
    )
    def test_every_plan_family_matches_serial(self, fleet, make_plan):
        serial = repro.run(make_plan())
        distributed = repro.run(make_plan(), executor=fleet_address(fleet))
        assert distributed.rows == serial.rows
        stats = last_run_stats()
        assert stats.remote_executed == stats.executed > 0
        assert not stats.degraded_remote

    def test_executor_in_the_plan_document_roundtrips(self, fleet):
        plan = trial_plan(executor=fleet_address(fleet))
        rebuilt = loads(dumps(plan))
        assert rebuilt.config.executor == fleet_address(fleet)
        assert repro.run(rebuilt).rows == repro.run(trial_plan()).rows

    @staticmethod
    def run_with_trial_zero_hanging(plan, fleet, tmp_path):
        """Run ``plan`` on ``fleet`` with each trial-0 payload hanging once.

        ``max_triggers`` counts per (trial, algorithm), so every algorithm's
        trial-0 payload hangs past its lease on the first worker to take it.
        """
        fault = FaultSpec(
            mode="worker_hang",
            trials=(0,),
            arm_dir=str(tmp_path),
            max_triggers=1,
            hang_seconds=2.0,
        )
        os.environ[FAULT_SPEC_ENV] = json.dumps(fault.to_dict())
        try:
            return repro.run(
                plan, executor=fleet_address(fleet, "?lease=0.5&heartbeat=0.1")
            )
        finally:
            del os.environ[FAULT_SPEC_ENV]

    def test_lease_expiry_mid_plan_stays_identical(self, fleet, tmp_path):
        """One hanging payload is requeued onto the surviving worker."""
        plan = trial_plan(algorithms=("rotor-push",))
        serial = repro.run(plan)
        with warnings.catch_warnings():
            # degrading to local execution would warn; it must not happen
            warnings.simplefilter("error", RuntimeWarning)
            table = self.run_with_trial_zero_hanging(plan, fleet, tmp_path)
        assert table.rows == serial.rows
        stats = last_run_stats()
        assert stats.lease_expiries == 1
        assert not stats.degraded
        assert not stats.degraded_remote
        assert stats.remote_executed == plan.config.n_trials  # one payload a trial

    def test_two_hanging_payloads_exhaust_the_fleet_and_degrade(self, fleet, tmp_path):
        """Both trial-0 payloads hang, both workers are dropped, and the run
        degrades to local execution with the same table."""
        serial = repro.run(trial_plan())
        with pytest.warns(RuntimeWarning, match="degrading to local execution"):
            table = self.run_with_trial_zero_hanging(trial_plan(), fleet, tmp_path)
        assert table.rows == serial.rows
        stats = last_run_stats()
        assert stats.lease_expiries >= 1
        assert stats.degraded_remote


def spawn_worker() -> subprocess.Popen:
    """Start a real ``repro worker`` daemon subprocess on an ephemeral port."""
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "tcp://127.0.0.1:0"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = process.stdout.readline()
    assert line.startswith("worker listening on "), line
    process.address = line.split()[-1]
    return process


class TestSubprocessWorkers:
    def test_worker_kill_mid_run_stays_identical(self, tmp_path):
        """The ISSUE's acceptance shape: one worker daemon dies mid-campaign
        (a real ``os._exit`` in a real subprocess); the survivor absorbs the
        requeued payload and the table is byte-identical to serial."""
        serial = repro.run(trial_plan())
        # trial 0 has one armed payload per algorithm (independent trigger
        # budgets), so up to two daemons die — a three-worker fleet keeps a
        # survivor to absorb the requeued payloads
        workers = [spawn_worker(), spawn_worker(), spawn_worker()]
        fault = FaultSpec(
            mode="worker_crash", trials=(0,), arm_dir=str(tmp_path), max_triggers=1
        )
        os.environ[FAULT_SPEC_ENV] = json.dumps(fault.to_dict())
        try:
            hosts = ",".join(w.address[len("tcp://") :] for w in workers)
            table = repro.run(trial_plan(), executor=f"tcp://{hosts}")
        finally:
            del os.environ[FAULT_SPEC_ENV]
            for worker in workers:
                worker.terminate()
                worker.wait(timeout=10)
                worker.stdout.close()
        assert table.rows == serial.rows
        stats = last_run_stats()
        assert stats.workers_lost >= 1
        assert not stats.degraded_remote


class TestWarmResume:
    @pytest.mark.parametrize(
        "make_plan", [trial_plan, network_plan, network_study_plan]
    )
    def test_remote_resume_reexecutes_nothing(self, fleet, make_plan, tmp_path):
        cache = tmp_path / "store"
        address = fleet_address(fleet)
        first = repro.run(make_plan(), cache=cache, executor=address)
        stats = last_run_stats()
        assert stats.remote_executed == stats.stored > 0

        # warm resume: every payload is served from the checkpoint store;
        # the fleet is never contacted (zero new sessions)
        sessions_before = sum(worker.sessions for worker in fleet)
        second = repro.run(
            make_plan(), cache=cache, resume=True, executor=address
        )
        assert second.rows == first.rows
        stats = last_run_stats()
        assert stats.executed == 0
        assert stats.remote_executed == 0
        assert stats.cache_hits > 0
        assert sum(worker.sessions for worker in fleet) == sessions_before

    def test_cold_local_run_matches_remote_cached_run(self, fleet, tmp_path):
        """Cache entries written by remote workers are valid hits for local
        re-runs (payload keys exclude the executor, like every throughput
        knob) — and vice versa the tables agree byte for byte."""
        cache = tmp_path / "store"
        remote = repro.run(trial_plan(), cache=cache, executor=fleet_address(fleet))
        local = repro.run(trial_plan(), cache=cache, resume=True)
        assert local.rows == remote.rows
        assert last_run_stats().cache_hits > 0
        assert last_run_stats().executed == 0
