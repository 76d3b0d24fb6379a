"""Checkpoint/resume: crash-safe campaigns that pick up where they stopped.

The resume contract: ``repro.run(plan, cache=..., resume=True)`` executes
only the trials whose checkpoint entry is missing (asserted via the
execution counters), produces output byte-identical to an uninterrupted run,
treats corrupted entries as misses, and refuses to "resume" with no store
anywhere to resume from.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.exceptions import PlanError
from repro.network.traffic import TrafficSpec
from repro.plans import (
    NetworkPlan,
    RunConfig,
    TrialPlan,
    last_run_stats,
    load_golden_plan,
    plan_with_overrides,
    validate_golden_plans,
)
from repro.plans.execute import compile_plan
from repro.resilience import FaultSpec, ResultStore
from repro.resilience.faults import FAULT_SPEC_ENV
from repro.exceptions import FaultInjectionError
from repro.workloads.spec import WorkloadSpec


def small_plan(**config_kwargs) -> TrialPlan:
    config_kwargs.setdefault("n_requests", 100)
    config_kwargs.setdefault("n_trials", 2)
    config_kwargs.setdefault("base_seed", 3)
    return TrialPlan(
        name="resume-test",
        n_nodes=31,
        workload=WorkloadSpec.create("uniform", n_elements=31),
        algorithms=("rotor-push", "move-half"),
        config=RunConfig(**config_kwargs),
    )


def network_plan(**config_kwargs) -> NetworkPlan:
    config_kwargs.setdefault("n_requests", 40)
    config_kwargs.setdefault("n_trials", 2)
    config_kwargs.setdefault("base_seed", 7)
    return NetworkPlan(
        name="resume-net",
        traffic=TrafficSpec.create(
            31,
            {
                source: WorkloadSpec.create("uniform", n_elements=31)
                for source in range(3)
            },
        ),
        algorithm="rotor-push",
        config=RunConfig(**config_kwargs),
    )


class TestResume:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        plan = small_plan()
        cold = repro.run(plan, cache=tmp_path)
        stats = last_run_stats()
        assert stats.executed == 4 and stats.stored == 4 and stats.cache_hits == 0
        warm = repro.run(plan, cache=tmp_path, resume=True)
        stats = last_run_stats()
        assert stats.executed == 0 and stats.cache_hits == 4
        assert warm.rows == cold.rows

    def test_without_resume_the_store_is_write_only(self, tmp_path):
        plan = small_plan()
        repro.run(plan, cache=tmp_path)
        repro.run(plan, cache=tmp_path)  # resume not requested: recompute
        stats = last_run_stats()
        assert stats.executed == 4 and stats.cache_hits == 0

    def test_cache_dir_in_config_is_honoured(self, tmp_path):
        plan = small_plan(cache_dir=str(tmp_path / "store"))
        cold = repro.run(plan)
        assert len(ResultStore(tmp_path / "store")) == 4
        warm = repro.run(plan, resume=True)
        stats = last_run_stats()
        assert stats.executed == 0 and stats.cache_hits == 4
        assert warm.rows == cold.rows

    def test_resume_without_any_store_is_refused(self):
        with pytest.raises(PlanError, match="cache"):
            repro.run(small_plan(), resume=True)

    def test_interrupted_run_resumes_only_missing_trials(
        self, tmp_path, monkeypatch
    ):
        """Interrupt a campaign halfway (a payload that keeps failing), then
        resume: only the missing trials execute, and the merged output equals
        an uninterrupted run, byte for byte."""
        plan = small_plan()
        uninterrupted = repro.run(plan)
        # trial 1 keeps failing -> the run dies after trial 0 persisted
        spec = FaultSpec(
            mode="exception", trials=(1,), arm_dir=str(tmp_path), max_triggers=100
        )
        monkeypatch.setenv(FAULT_SPEC_ENV, json.dumps(spec.to_dict()))
        store_dir = tmp_path / "store"
        with pytest.raises(FaultInjectionError):
            repro.run(
                plan_with_overrides(plan, max_retries=0), cache=store_dir
            )
        monkeypatch.delenv(FAULT_SPEC_ENV)
        survivors = len(ResultStore(store_dir))
        assert 0 < survivors < 4  # partial progress persisted
        resumed = repro.run(plan, cache=store_dir, resume=True)
        stats = last_run_stats()
        assert stats.cache_hits == survivors
        assert stats.executed == 4 - survivors
        assert resumed.rows == uninterrupted.rows

    def test_corrupted_entry_is_recomputed_not_fatal(self, tmp_path):
        plan = small_plan()
        cold = repro.run(plan, cache=tmp_path)
        store = ResultStore(tmp_path)
        victim = store.keys()[0]
        store.path_for(victim).write_text("not a checkpoint entry")
        warm = repro.run(plan, cache=tmp_path, resume=True)
        stats = last_run_stats()
        assert stats.corrupt_entries == 1
        assert stats.executed == 1 and stats.cache_hits == 3
        assert warm.rows == cold.rows
        # the re-run healed the entry
        assert store.get(victim) is not None

    def test_extended_campaign_reuses_shared_prefix(self, tmp_path):
        """Growing n_trials 2 -> 4 must re-use every trial-0/1 entry: keys
        are per-payload content, not per-plan."""
        repro.run(small_plan(n_trials=2), cache=tmp_path)
        bigger = small_plan(n_trials=4)
        direct = repro.run(bigger)
        resumed = repro.run(bigger, cache=tmp_path, resume=True)
        stats = last_run_stats()
        assert stats.cache_hits == 4  # 2 trials x 2 algorithms already stored
        assert stats.executed == 4  # only the two new trials ran
        assert resumed.rows == direct.rows

    def test_hits_survive_jobs_and_chunk_size_changes(self, tmp_path):
        """Entries written under one throughput configuration are valid hits
        under every other (bit-identity makes them interchangeable)."""
        plan = small_plan()
        cold = repro.run(plan, cache=tmp_path)
        warm = repro.run(
            plan_with_overrides(plan, n_jobs=4, chunk_size=32),
            cache=tmp_path,
            resume=True,
        )
        stats = last_run_stats()
        assert stats.executed == 0 and stats.cache_hits == 4
        assert warm.rows == cold.rows

    def test_network_plan_resumes(self, tmp_path):
        plan = network_plan()
        cold = repro.run(plan, cache=tmp_path)
        stats = last_run_stats()
        assert stats.executed == 2 and stats.stored == 2
        warm = repro.run(plan, cache=tmp_path, resume=True)
        stats = last_run_stats()
        assert stats.executed == 0 and stats.cache_hits == 2
        assert warm.rows == cold.rows


def golden_plan(name: str, **overrides):
    return plan_with_overrides(
        load_golden_plan(name), n_trials=1, n_requests=200, **overrides
    )


class TestGoldenPlanFanout:
    """Every golden plan's payloads reach the store and the executor.

    A run fans out once with the plan's knobs, so no stage — however
    bespoke its payloads — may bypass ``cache_dir`` or ``executor``.
    """

    @pytest.mark.parametrize("name", validate_golden_plans())
    def test_cold_run_stores_every_payload_and_resume_executes_none(
        self, name, tmp_path
    ):
        plan = golden_plan(name, cache_dir=str(tmp_path))
        n_payloads = len(compile_plan(plan).payloads)
        cold = repro.run(plan)
        assert last_run_stats().stored == n_payloads
        warm = repro.run(plan, resume=True)
        stats = last_run_stats()
        assert stats.executed == 0 and stats.cache_hits == n_payloads
        assert warm == cold

    @pytest.mark.parametrize("name", validate_golden_plans())
    def test_every_payload_reaches_the_executor(self, name, monkeypatch):
        from repro.dist import coordinator
        from repro.sim.runner import _execute_trial

        received = []

        def fake_fleet(payloads, executor, *, on_result=None, **_knobs):
            results = []
            for index, payload in enumerate(payloads):
                received.append(payload)
                results.append(_execute_trial(payload))
                if on_result is not None:
                    on_result(index, results[-1])
            return results

        monkeypatch.setattr(coordinator, "run_distributed", fake_fleet)
        plan = golden_plan(name)
        local = repro.run(plan)
        remote = repro.run(plan, executor="tcp://fleet.invalid:1")
        assert received == compile_plan(plan).payloads
        assert remote == local
