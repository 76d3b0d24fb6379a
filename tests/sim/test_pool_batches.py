"""Batched pool dispatch: cost-sized batches, per-payload isolation, metrics.

``map_ordered`` sends contiguous batches of payloads to the pool, sized from
the largest per-payload time measured so far.  Batching is a throughput
detail: results stay ordered, a failing payload retries alone, an exhausted
one still lets every returned result reach ``on_result``, and the seconds
each batch reports are observed in the parent.
"""

from __future__ import annotations

import os
import time

import pytest

import repro
from repro.plans import last_run_stats, load_golden_plan, plan_with_overrides
from repro.resilience import RetryPolicy
from repro.sim import parallel
from repro.sim.parallel import BATCH_TARGET_S, _batch_size, map_ordered
from repro.telemetry.registry import MetricsRegistry, use_registry


def _identity(value):
    return value


def _fail_once_at_seven(item):
    value, arm_dir = item
    if value == 7:
        try:
            os.close(os.open(os.path.join(arm_dir, "armed"), os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return value
        raise ValueError("transient failure at 7")
    return value


def _always_fail_at_last(value):
    if value == 59:
        raise ValueError("permanent failure at 59")
    return value


def _slow_zero_failing_one(value):
    if value == 0:
        time.sleep(0.3)
        return value
    raise ValueError("permanent failure at 1")


def _pid(_value):
    time.sleep(0.001)
    return os.getpid()


class TestBatchSize:
    def test_no_measurement_yet_means_one_payload(self):
        assert _batch_size(0.0, 1_000, 2, None) == 1

    def test_batches_target_the_wall_time(self):
        assert _batch_size(0.001, 10_000, 2, None) == int(BATCH_TARGET_S / 0.001)

    def test_expensive_payloads_go_one_per_batch(self):
        assert _batch_size(2 * BATCH_TARGET_S, 10_000, 2, None) == 1

    def test_the_tail_is_split_across_workers(self):
        # ceil(10 / (4 * 2)) = 2
        assert _batch_size(1e-6, 10, 2, None) == 2

    def test_a_worker_timeout_caps_the_expected_batch_time(self):
        assert _batch_size(0.001, 10_000, 2, 0.02) == 5


class TestBatchedDispatch:
    def test_small_payloads_share_dispatches(self, monkeypatch):
        sizes = []

        def spy(*args):
            sizes.append(_batch_size(*args))
            return sizes[-1]

        monkeypatch.setattr(parallel, "_batch_size", spy)
        payloads = list(range(400))
        assert map_ordered(_identity, payloads, n_jobs=2) == payloads
        assert max(sizes) > 1
        assert len(sizes) + 2 < len(payloads)

    def test_contiguous_payloads_share_a_worker(self):
        pids = map_ordered(_pid, list(range(120)), n_jobs=2)
        runs = sum(1 for before, after in zip(pids, pids[1:]) if before != after)
        assert runs < len(pids) // 2

    def test_a_failed_payload_retries_alone(self, tmp_path):
        class Stats:
            retries = 0
            executed = 0

        stats = Stats()
        payloads = [(value, str(tmp_path)) for value in range(60)]
        results = map_ordered(
            _fail_once_at_seven,
            payloads,
            n_jobs=2,
            retry=RetryPolicy(max_retries=1, backoff_base=0.0),
            stats=stats,
        )
        assert results == list(range(60))
        assert stats.retries == 1 and stats.executed == 60

    def test_exhausted_payload_raises_after_every_result_is_persisted(self):
        seen = []
        with pytest.raises(ValueError, match="permanent failure at 59"):
            map_ordered(
                _always_fail_at_last,
                list(range(60)),
                n_jobs=2,
                retry=RetryPolicy(max_retries=0),
                on_result=lambda index, result: seen.append(index),
            )
        assert sorted(seen) == list(range(59))

    def test_exhausted_payload_waits_for_the_batches_in_flight(self):
        # payload 0 is still running on the other worker when payload 1
        # exhausts its budget; its result must reach on_result before the
        # error propagates
        seen = []
        with pytest.raises(ValueError, match="permanent failure at 1"):
            map_ordered(
                _slow_zero_failing_one,
                [0, 1],
                n_jobs=2,
                retry=RetryPolicy(max_retries=0),
                on_result=lambda index, result: seen.append(index),
            )
        assert seen == [0]

    def test_pool_seconds_reach_the_parent(self):
        seconds = {}
        map_ordered(
            _pid,
            list(range(30)),
            n_jobs=2,
            on_seconds=lambda index, value: seconds.setdefault(index, value),
        )
        assert sorted(seconds) == list(range(30))
        assert all(value >= 0.001 for value in seconds.values())


class TestTrialSeconds:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_one_observation_per_payload(self, n_jobs):
        plan = plan_with_overrides(load_golden_plan("smoke"), n_trials=4, n_jobs=n_jobs)
        registry = MetricsRegistry()
        with use_registry(registry):
            repro.run(plan)
        histogram = registry.histogram("repro_trial_seconds", labels=("algorithm",))
        counts = [histogram.count(algorithm=name) for name in plan.algorithm_names()]
        assert sum(counts) == last_run_stats().executed == 12
        assert all(count == 4 for count in counts)
