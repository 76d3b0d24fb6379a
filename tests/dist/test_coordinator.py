"""Coordinator scheduling under failure: leases, loss, duplicates, ladder.

Pins the placement-under-failure semantics of :mod:`repro.dist.coordinator`
against in-thread :class:`~repro.dist.worker.WorkerServer` daemons: a
healthy fleet produces exactly the serial results, a hung worker expires its
lease and loses the payload to a peer, a partitioned worker leaves the fleet
without losing work, transient execution errors retry under the seeded
policy, and an empty or unreachable fleet degrades to local execution —
byte-identically, because results are pure functions of payload content.
"""

from __future__ import annotations

import socket
import warnings

import pytest

import repro
from repro.algorithms.registry import AlgorithmSpec
from repro.dist.coordinator import DistributedExecutor
from repro.dist.protocol import ExecutorSpec, ProtocolError
from repro.dist.worker import WorkerServer, parse_listen_address
from repro.exceptions import ExperimentError
from repro.plans import last_run_stats, load_golden_plan, plan_with_overrides
from repro.plans.execute import compile_plan
from repro.resilience import FaultSpec, ResilienceStats, RetryPolicy
from repro.resilience.store import payload_key, result_to_dict
from repro.sim.parallel import _Run, map_ordered
from repro.sim.runner import SpecSource, TrialPayload, _execute_trial
from repro.telemetry.registry import MetricsRegistry, use_registry
from repro.workloads.spec import WorkloadSpec

FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.0)


def make_payloads(n: int = 4, fault=None):
    spec = WorkloadSpec.create(
        "combined-locality", n_elements=15, zipf_exponent=1.4, repeat_probability=0.4
    )
    return [
        TrialPayload(
            algorithm=AlgorithmSpec.coerce("rotor-push"),
            source=SpecSource(spec.with_seed(trial), n_requests=80),
            n_nodes=15,
            placement_seed=100 + trial,
            algorithm_seed=200 + trial,
            keep_records=False,
            trial=trial,
            fault=fault,
        )
        for trial in range(n)
    ]


def run_distributed(payloads, address, **knobs):
    """Fan ``payloads`` out with the fleet at ``address`` as the first rung."""
    fleet = DistributedExecutor(ExecutorSpec.parse(address))
    return map_ordered(_execute_trial, payloads, fleet=fleet, **knobs)


def serial_documents(payloads):
    return [result_to_dict(_execute_trial(payload)) for payload in payloads]


def dead_address() -> str:
    """An endpoint nothing listens on (bound once, then released)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


@pytest.fixture()
def fleet():
    workers = [WorkerServer().start(), WorkerServer().start()]
    yield workers
    for worker in workers:
        worker.stop()


def fleet_address(workers, options: str = "") -> str:
    hosts = ",".join(f"{w.host}:{w.port}" for w in workers)
    return f"tcp://{hosts}{options}"


class TestHealthyFleet:
    def test_results_match_serial_in_payload_order(self, fleet):
        payloads = make_payloads(6)
        stats = ResilienceStats()
        seen = []
        results = run_distributed(
            payloads,
            fleet_address(fleet),
            retry=FAST_RETRY,
            on_result=lambda index, result: seen.append(index),
            stats=stats,
        )
        assert [result_to_dict(r) for r in results] == serial_documents(payloads)
        assert sorted(seen) == list(range(6))
        assert stats.remote_executed == 6
        assert stats.executed == 6
        assert not stats.degraded_remote
        assert sum(worker.completed for worker in fleet) == 6

    def test_empty_payload_list_never_connects(self):
        stats = ResilienceStats()
        assert run_distributed([], f"tcp://{dead_address()}", stats=stats) == []
        assert stats.workers_lost == 0

    def test_workers_survive_across_runs(self, fleet):
        payloads = make_payloads(2)
        expected = serial_documents(payloads)
        for _ in range(2):
            results = run_distributed(payloads, fleet_address(fleet), retry=FAST_RETRY)
            assert [result_to_dict(r) for r in results] == expected
        assert all(worker.sessions >= 2 for worker in fleet)


class TestDegradationLadder:
    def test_unreachable_fleet_degrades_to_local(self):
        payloads = make_payloads(3)
        stats = ResilienceStats()
        address = f"tcp://{dead_address()},{dead_address()}"
        with pytest.warns(RuntimeWarning, match="degrading to local"):
            results = run_distributed(
                payloads, address, retry=FAST_RETRY, stats=stats
            )
        assert [result_to_dict(r) for r in results] == serial_documents(payloads)
        assert stats.degraded_remote
        assert stats.workers_lost == 2
        assert stats.remote_executed == 0
        assert stats.executed == 3

    def test_partial_fleet_needs_no_degradation(self, fleet):
        payloads = make_payloads(4)
        stats = ResilienceStats()
        address = f"tcp://{fleet[0].host}:{fleet[0].port},{dead_address()}"
        results = run_distributed(payloads, address, retry=FAST_RETRY, stats=stats)
        assert [result_to_dict(r) for r in results] == serial_documents(payloads)
        assert stats.workers_lost == 1
        assert not stats.degraded_remote
        assert stats.remote_executed == 4

    def test_unreachable_fleet_degrades_to_the_pool(self, monkeypatch):
        plan = plan_with_overrides(load_golden_plan("smoke"), n_trials=2, n_jobs=2)
        n_payloads = len(compile_plan(plan).payloads)
        expected = repro.run(plan_with_overrides(plan, n_jobs=1))
        serial_rung = []
        serial = _Run.serial

        def spy(run, indices):
            serial_rung.extend(indices)
            return serial(run, indices)

        monkeypatch.setattr(_Run, "serial", spy)
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.warns(RuntimeWarning, match="degrading to local execution"):
                remote = repro.run(plan, executor=f"tcp://{dead_address()}")
        stats = last_run_stats()
        assert remote == expected
        assert stats.degraded_remote and not stats.degraded
        assert stats.executed == n_payloads and stats.remote_executed == 0
        # every leftover ran on a pool process: the parent observed each
        # payload's seconds once, from its batch, and ran none itself
        assert serial_rung == []
        trial_seconds = registry.histogram("repro_trial_seconds", labels=("algorithm",))
        assert sum(
            trial_seconds.count(algorithm=name) for name in plan.algorithm_names()
        ) == n_payloads


class TestFanoutTiming:
    @pytest.mark.parametrize(
        "n_jobs, remote, mode",
        [(1, False, "serial"), (2, False, "pool"), (1, True, "fleet"), (2, True, "fleet")],
    )
    def test_one_observation_per_fan_out(self, n_jobs, remote, mode):
        plan = plan_with_overrides(load_golden_plan("smoke"), n_trials=2, n_jobs=n_jobs)
        executor = f"tcp://{dead_address()}" if remote else None
        registry = MetricsRegistry()
        with use_registry(registry), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            repro.run(plan, executor=executor)
        fanout = registry.histogram("repro_fanout_seconds", labels=("mode",))
        counts = {label: fanout.count(mode=label) for label in ("fleet", "pool", "serial")}
        assert counts == {label: int(label == mode) for label in counts}


class TestWorkerFaults:
    def test_hang_expires_the_lease_and_requeues(self, fleet, tmp_path):
        fault = FaultSpec(
            mode="worker_hang",
            trials=(0,),
            arm_dir=str(tmp_path),
            max_triggers=1,
            hang_seconds=2.0,
        )
        payloads = make_payloads(4, fault=fault)
        stats = ResilienceStats()
        address = fleet_address(fleet, "?lease=0.5&heartbeat=0.1")
        results = run_distributed(payloads, address, retry=FAST_RETRY, stats=stats)
        assert [result_to_dict(r) for r in results] == serial_documents(
            make_payloads(4)
        )
        assert stats.lease_expiries >= 1
        assert stats.workers_lost >= 1
        assert not stats.degraded_remote

    def test_partition_drops_the_worker_but_not_the_work(self, fleet, tmp_path):
        fault = FaultSpec(
            mode="worker_partition", trials=(0,), arm_dir=str(tmp_path), max_triggers=1
        )
        payloads = make_payloads(4, fault=fault)
        stats = ResilienceStats()
        results = run_distributed(
            payloads, fleet_address(fleet), retry=FAST_RETRY, stats=stats
        )
        assert [result_to_dict(r) for r in results] == serial_documents(
            make_payloads(4)
        )
        assert stats.workers_lost >= 1
        assert stats.remote_executed == 4

    def test_transient_execution_error_retries(self, fleet, tmp_path):
        fault = FaultSpec(
            mode="exception", trials=(0,), arm_dir=str(tmp_path), max_triggers=1
        )
        payloads = make_payloads(3, fault=fault)
        stats = ResilienceStats()
        results = run_distributed(
            payloads, fleet_address(fleet), retry=FAST_RETRY, stats=stats
        )
        # the retried payload re-runs from its pristine seeded state, so the
        # output is the fault-free output (fault field excluded from results)
        assert [result_to_dict(r) for r in results] == serial_documents(
            make_payloads(3)
        )
        assert stats.retries >= 1

    def test_exhausted_error_budget_fails_the_run(self, fleet, tmp_path):
        fault = FaultSpec(
            mode="exception", trials=(0,), arm_dir=str(tmp_path), max_triggers=100
        )
        payloads = make_payloads(2, fault=fault)
        with pytest.raises(ExperimentError, match="after 1 retries"):
            run_distributed(
                payloads,
                fleet_address(fleet),
                retry=RetryPolicy(max_retries=1, backoff_base=0.0),
            )


class TestVerificationAndDuplicates:
    def _primed_executor(self, payloads, stats=None):
        executor = DistributedExecutor(ExecutorSpec.parse("tcp://unused:1"))
        executor._run = _Run(_execute_trial, payloads, FAST_RETRY, None, None, stats)
        executor._keys = [payload_key(payload) for payload in payloads]
        return executor

    def test_content_key_mismatch_is_refused(self):
        payloads = make_payloads(1)
        executor = self._primed_executor(payloads)
        result = _execute_trial(payloads[0])
        with pytest.raises(ProtocolError, match="refusing the result"):
            executor._record(
                0,
                1,
                {"type": "result", "key": "bogus", "result": result_to_dict(result)},
            )

    def test_duplicate_completion_resolves_idempotently(self):
        payloads = make_payloads(1)
        stats = ResilienceStats()
        executor = self._primed_executor(payloads, stats)
        result = _execute_trial(payloads[0])
        frame = {
            "type": "result",
            "key": payload_key(payloads[0]),
            "result": result_to_dict(result),
        }
        assert executor._record(0, 1, frame)
        # a lease race delivers the same payload again: dropped, counted
        assert not executor._record(0, 2, frame)
        assert stats.duplicate_results == 1
        assert stats.remote_executed == 1
        assert result_to_dict(executor._run.results[0]) == result_to_dict(result)


class TestListenAddress:
    def test_parse_listen_address(self):
        assert parse_listen_address("tcp://0.0.0.0:7777") == ("0.0.0.0", 7777)
        with pytest.raises(ExperimentError, match="tcp://HOST:PORT"):
            parse_listen_address("0.0.0.0:7777")
        with pytest.raises(ExperimentError, match="tcp://HOST:PORT"):
            parse_listen_address("tcp://nohost")
