"""ResilienceStats: per-run counts that also feed the global counters."""

from __future__ import annotations

import sys
import threading

import pytest

import repro.sim.runner as runner
from repro.plans import last_run_stats, load_golden_plan, run
from repro.resilience import ResilienceStats
from repro.sim.parallel import _count
from repro.telemetry.registry import MetricsRegistry, use_registry


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestPerRunViews:
    def test_fields_start_at_zero(self, registry):
        stats = ResilienceStats(registry=registry)
        assert stats.executed == 0
        assert stats.cache_hits == 0
        assert stats.degraded is False
        assert stats.degraded_remote is False

    def test_increment_style_assignment(self, registry):
        stats = ResilienceStats(registry=registry)
        stats.executed = stats.executed + 1
        stats.executed += 2
        assert stats.executed == 3
        assert registry.counter("repro_run_executed_total").total() == 3

    def test_two_instances_have_independent_views(self, registry):
        first = ResilienceStats(registry=registry)
        first.retries = 5
        second = ResilienceStats(registry=registry)
        assert second.retries == 0
        second.retries = 2
        assert first.retries == 5  # first keeps its own count
        assert registry.counter("repro_run_retries_total").total() == 7

    def test_flags_view_as_bools(self, registry):
        stats = ResilienceStats(registry=registry)
        stats.degraded = True
        assert stats.degraded is True
        stats.degraded_remote = True
        assert stats.degraded_remote is True
        # re-setting True is idempotent on the counter
        before = registry.counter("repro_run_degraded_total").total()
        stats.degraded = True
        assert registry.counter("repro_run_degraded_total").total() == before

    def test_lowering_assignment_shifts_the_baseline(self, registry):
        stats = ResilienceStats(registry=registry)
        stats.stored = 4
        stats.stored = 1  # counters are monotonic; only the run's count drops
        assert stats.stored == 1
        assert registry.counter("repro_run_stored_total").total() == 4

    def test_as_dict_lists_every_field(self, registry):
        stats = ResilienceStats(registry=registry)
        stats.executed = 2
        stats.degraded = True
        doc = stats.as_dict()
        assert doc["executed"] == 2
        assert doc["degraded"] is True
        assert set(doc) == {
            "executed",
            "cache_hits",
            "stored",
            "retries",
            "pool_rebuilds",
            "degraded",
            "corrupt_entries",
            "remote_executed",
            "lease_expiries",
            "workers_lost",
            "duplicate_results",
            "degraded_remote",
        }

    def test_unknown_attribute_is_loud(self, registry):
        stats = ResilienceStats(registry=registry)
        with pytest.raises(AttributeError):
            stats.no_such_field

    def test_default_registry_is_used_when_not_injected(self):
        scratch = MetricsRegistry()
        with use_registry(scratch):
            stats = ResilienceStats()
            stats.executed = 3
        assert scratch.counter("repro_run_executed_total").total() == 3


class TestConcurrentBumps:
    def test_no_bump_is_lost_between_threads(self, registry):
        """Fleet threads bump ``retries`` and ``stored`` at once: each bump
        is one locked step, so none of 4 x 20,000 is lost, even with the
        interpreter switching threads as often as it can."""
        stats = ResilienceStats(registry=registry)

        def bump():
            for _ in range(20_000):
                _count(stats, "stored")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=bump) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert stats.stored == 80_000


class TestConcurrentRuns:
    def test_two_concurrent_runs_each_count_their_own_payloads(self, monkeypatch):
        """Two smoke runs in lockstep (each payload waits for the other
        run's) in two threads: each reports its own 6 executed payloads."""
        plan = load_golden_plan("smoke")
        solo = run(plan).format_text()
        assert last_run_stats().executed == 6
        barrier = threading.Barrier(2, timeout=30)
        execute = runner._execute_trial

        def lockstep(payload):
            barrier.wait()
            return execute(payload)

        monkeypatch.setattr(runner, "_execute_trial", lockstep)
        reports = {}

        def run_in_thread(name):
            table = run(plan).format_text()
            reports[name] = (last_run_stats().executed, table)

        threads = [threading.Thread(target=run_in_thread, args=(name,)) for name in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert reports == {"a": (6, solo), "b": (6, solo)}
