"""Spec-shipped streaming pipeline: determinism, laziness and pool reuse.

The acceptance contract of the rebuilt generation pipeline:

* payloads carry :class:`repro.sim.runner.SpecSource` (not sequences) for
  every spec-able workload, and building them never calls ``generate`` in the
  parent process;
* a parallel streaming run (``n_jobs=4``) is byte-identical to the serial
  materialised baseline at the same seeds, for both the runner and a sweep
  plan;
* ``map_ordered`` reuses one persistent process pool across calls.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro
from repro.plans import RunConfig, SweepPlan
from repro.plans.execute import compile_plan
from repro.sim import parallel
from repro.sim.engine import simulate, simulate_stream
from repro.sim.runner import (
    SequenceSource,
    SpecSource,
    TrialRunner,
    compare_algorithms,
)
from repro.workloads import (
    CombinedLocalityWorkload,
    TemporalWorkload,
    UniformWorkload,
    WorkloadGenerator,
    WorkloadSpec,
    ZipfWorkload,
)
from repro.workloads.base import WorkloadGenerator as _Base

N_NODES = 63
N_REQUESTS = 400
ALGORITHMS = ["rotor-push", "random-push", "static-opt", "static-oblivious"]


def _factory(seed: int) -> CombinedLocalityWorkload:
    return CombinedLocalityWorkload(N_NODES, 1.4, 0.5, seed=seed)


class _SpeclessWorkload(WorkloadGenerator):
    """A workload without a spec: must fall back to a materialised sequence."""

    name = "specless"

    def generate(self, n_requests):
        self._check_length(n_requests)
        return [self._rng.randrange(self.n_elements) for _ in range(n_requests)]


class TestPayloadConstruction:
    def test_spec_able_workloads_ship_as_specs(self):
        runner = TrialRunner(N_NODES, RunConfig(n_requests=N_REQUESTS, n_trials=3))
        sources = runner.trial_sources(_factory)
        assert all(isinstance(source, SpecSource) for source in sources)
        assert [source.spec.seed for source in sources] == [0, 1, 2]

    def test_factory_may_return_specs_directly(self):
        runner = TrialRunner(N_NODES, RunConfig(n_requests=50, n_trials=2, base_seed=7))
        sources = runner.trial_sources(
            lambda seed: WorkloadSpec.create("uniform", seed=seed, n_elements=N_NODES)
        )
        assert [source.spec.seed for source in sources] == [7, 8]
        outcomes = runner.run(["rotor-push"], lambda seed: WorkloadSpec.create(
            "uniform", seed=seed, n_elements=N_NODES
        ))
        reference = runner.run(
            ["rotor-push"], lambda seed: UniformWorkload(N_NODES, seed=seed)
        )
        for left, right in zip(outcomes["rotor-push"], reference["rotor-push"]):
            assert left.result.to_dict() == right.result.to_dict()

    def test_specless_workload_falls_back_to_sequence(self):
        runner = TrialRunner(N_NODES, RunConfig(n_requests=50, n_trials=2))
        sources = runner.trial_sources(lambda seed: _SpeclessWorkload(N_NODES, seed))
        assert all(isinstance(source, SequenceSource) for source in sources)
        assert all(len(source.sequence) == 50 for source in sources)

    def test_trace_workloads_ship_truncated_sequences_not_trace_specs(self):
        # a fixed-sequence spec embeds the whole trace; shipping it would be
        # far heavier than the truncated sequence the runner actually needs
        from repro.workloads import SequenceWorkload

        trace = list(range(N_NODES)) * 100  # 6,300-element trace
        runner = TrialRunner(N_NODES, RunConfig(n_requests=50, n_trials=2))
        sources = runner.trial_sources(lambda seed: SequenceWorkload(N_NODES, trace))
        assert all(isinstance(source, SequenceSource) for source in sources)
        assert all(source.sequence == tuple(trace[:50]) for source in sources)

    def test_spec_universe_mismatch_rejected(self):
        from repro.exceptions import ExperimentError

        runner = TrialRunner(N_NODES, RunConfig(n_requests=10, n_trials=1))
        with pytest.raises(ExperimentError):
            runner.trial_sources(
                lambda seed: WorkloadSpec.create("uniform", seed=seed, n_elements=31)
            )

    def test_parent_never_generates_for_spec_workloads(self, monkeypatch):
        def forbidden(self, n_requests):
            raise AssertionError("generate() called in the parent process")

        # patch every concrete generator the sweep could touch
        monkeypatch.setattr(_Base, "generate", forbidden)
        monkeypatch.setattr(TemporalWorkload, "generate", forbidden)
        monkeypatch.setattr(UniformWorkload, "generate", forbidden)
        sweep = SweepPlan(
            workload=WorkloadSpec.create("temporal", n_elements=N_NODES),
            algorithms=ALGORITHMS,
            points=[{"p": 0.0}, {"p": 0.5}, {"p": 0.9}],
            bind={"p": "repeat_probability"},
            n_nodes=N_NODES,
            # paper scale: materialising this would be obvious
            config=RunConfig(n_requests=10**6, n_trials=3),
        )
        payloads = compile_plan(sweep).payloads
        assert len(payloads) == 3 * 3 * len(ALGORITHMS)
        assert all(isinstance(p.source, SpecSource) for p in payloads)
        point_starts = payloads[:: 3 * len(ALGORITHMS)]
        assert [p.source.spec.get("repeat_probability") for p in point_starts] == [
            0.0,
            0.5,
            0.9,
        ]


class TestStreamingDeterminism:
    def test_stream_equals_materialised_simulation(self):
        workload = ZipfWorkload(N_NODES, 1.8, seed=3)
        sequence = workload.generate(N_REQUESTS)
        materialised = simulate(
            "rotor-push", sequence, n_nodes=N_NODES, placement_seed=1, keep_records=False
        )
        streamed = simulate_stream(
            "rotor-push",
            ZipfWorkload(N_NODES, 1.8, seed=3).iter_requests(N_REQUESTS, 64),
            n_nodes=N_NODES,
            placement_seed=1,
            keep_records=False,
        )
        assert streamed.to_dict() == materialised.to_dict()

    def test_stream_supports_offline_preparation(self):
        # static-opt must see the whole sequence; run_stream materialises it
        workload = UniformWorkload(N_NODES, seed=2)
        sequence = workload.generate(N_REQUESTS)
        materialised = simulate(
            "static-opt", sequence, n_nodes=N_NODES, placement_seed=1, keep_records=False
        )
        streamed = simulate_stream(
            "static-opt",
            UniformWorkload(N_NODES, seed=2).iter_requests(N_REQUESTS, 64),
            n_nodes=N_NODES,
            placement_seed=1,
            keep_records=False,
        )
        assert streamed.to_dict() == materialised.to_dict()

    def test_runner_spec_path_equals_materialised_baseline(self):
        config = RunConfig(n_requests=N_REQUESTS, n_trials=3, base_seed=5, chunk_size=97)
        runner = TrialRunner(N_NODES, config)
        # serial materialised baseline: generate in the parent, ship sequences
        baseline = runner.run_on_sequences(ALGORITHMS, runner.trial_sequences(_factory))
        # spec-shipped streaming path, parallel
        streaming = TrialRunner(N_NODES, replace(config, n_jobs=4)).run(
            ALGORITHMS, _factory
        )
        assert baseline.keys() == streaming.keys()
        for name in baseline:
            for left, right in zip(baseline[name], streaming[name]):
                assert left.result.to_dict() == right.result.to_dict()

    @pytest.mark.parametrize("chunk_size", [None, 61])
    def test_sweep_serial_vs_parallel_byte_identical(self, chunk_size):
        def table(n_jobs):
            sweep = SweepPlan(
                workload=WorkloadSpec.create(
                    "combined-locality", n_elements=N_NODES, zipf_exponent=1.2
                ),
                algorithms=ALGORITHMS,
                points=[{"p": 0.0}, {"a": 1.6, "p": 0.6}],
                bind={"p": "repeat_probability", "a": "zipf_exponent"},
                n_nodes=N_NODES,
                config=RunConfig(
                    n_requests=N_REQUESTS,
                    n_trials=2,
                    base_seed=42,
                    n_jobs=n_jobs,
                    chunk_size=chunk_size,
                ),
                name="stream-check",
            )
            return repro.run(sweep)

        assert table(1).to_json() == table(4).to_json()

    def test_compare_algorithms_chunk_size_invariant(self):
        def aggregate(chunk_size):
            return compare_algorithms(
                ["rotor-push", "move-half"],
                _factory,
                n_nodes=N_NODES,
                config=RunConfig(n_requests=N_REQUESTS, n_trials=2, chunk_size=chunk_size),
            )

        small = aggregate(17)
        large = aggregate(10_000)
        for name in small:
            assert small[name].total_cost == large[name].total_cost


class TestPersistentPool:
    def test_pool_is_reused_across_calls(self):
        parallel.shutdown_persistent_pool()
        parallel.map_ordered(abs, list(range(-8, 0)), n_jobs=2)
        first = parallel._pool
        assert first is not None
        parallel.map_ordered(abs, list(range(-8, 0)), n_jobs=2)
        assert parallel._pool is first

    def test_pool_is_replaced_when_size_changes(self):
        parallel.shutdown_persistent_pool()
        parallel.map_ordered(abs, list(range(-8, 0)), n_jobs=2)
        first = parallel._pool
        parallel.map_ordered(abs, list(range(-8, 0)), n_jobs=3)
        assert parallel._pool is not first
        parallel.shutdown_persistent_pool()
        assert parallel._pool is None

    def test_serial_calls_do_not_create_a_pool(self):
        parallel.shutdown_persistent_pool()
        parallel.map_ordered(abs, [-1, -2], n_jobs=1)
        assert parallel._pool is None

    def test_pool_is_rebuilt_after_new_workload_registration(self):
        # forked workers snapshot the registry at pool creation; registering
        # a new kind must force a rebuild so workers can build it
        from repro.workloads import register_workload

        parallel.shutdown_persistent_pool()
        parallel.map_ordered(abs, list(range(-8, 0)), n_jobs=2)
        first = parallel._pool
        register_workload("test-pool-rebuild-kind")(
            lambda params, seed: _SpeclessWorkload(int(params["n_elements"]), seed)
        )
        parallel.map_ordered(abs, list(range(-8, 0)), n_jobs=2)
        assert parallel._pool is not first
        parallel.shutdown_persistent_pool()


class TestSharedStreamMemo:
    def test_shared_sources_generate_once_per_trial(self, monkeypatch):
        import repro.sim.runner as runner_module

        builds = []
        real_build = runner_module.build_workload
        monkeypatch.setattr(
            runner_module,
            "build_workload",
            lambda spec: builds.append(spec) or real_build(spec),
        )
        runner_module._shared_chunks_cache.clear()
        runner = TrialRunner(N_NODES, RunConfig(n_requests=100, n_trials=2))
        runner.run(["rotor-push", "move-half", "static-oblivious"], _factory)
        # one build per trial, not one per (trial, algorithm)
        assert len(builds) == 2
        runner_module._shared_chunks_cache.clear()

    def test_single_algorithm_sources_stay_unshared(self):
        runner = TrialRunner(N_NODES, RunConfig(n_requests=100, n_trials=2))
        payloads = runner.build_payloads(["rotor-push"], runner.trial_sources(_factory))
        assert all(not p.source.shared for p in payloads)
        both = runner.build_payloads(
            ["rotor-push", "move-half"], runner.trial_sources(_factory)
        )
        assert all(p.source.shared for p in both)

    def test_shared_and_unshared_results_identical(self):
        runner = TrialRunner(N_NODES, RunConfig(n_requests=200, n_trials=2, base_seed=3))
        shared = runner.run(["rotor-push", "move-half"], _factory)
        lone_rotor = runner.run(["rotor-push"], _factory)
        for left, right in zip(shared["rotor-push"], lone_rotor["rotor-push"]):
            assert left.result.to_dict() == right.result.to_dict()
