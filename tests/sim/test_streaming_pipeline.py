"""Spec-shipped streaming pipeline: determinism, laziness and pool reuse.

The acceptance contract of the rebuilt generation pipeline:

* payloads carry :class:`repro.sim.runner.SpecSource` (not sequences), and
  building them never calls ``generate`` in the parent process;
* a parallel streaming run (``n_jobs=4``) is byte-identical to the serial
  materialised baseline at the same seeds, for both trial payloads and a
  sweep plan;
* ``map_ordered`` reuses one persistent process pool across calls.
"""

from __future__ import annotations

import pytest

import repro
from repro.algorithms import cascade_kernel
from repro.plans import RunConfig, SweepPlan, TrialPlan
from repro.plans.execute import compile_plan
from repro.sim import parallel
from repro.sim.engine import simulate, simulate_stream
from repro.sim.runner import SpecSource, TrialRunner, execute_payloads
from repro.workloads import (
    CombinedLocalityWorkload,
    TemporalWorkload,
    UniformWorkload,
    WorkloadGenerator,
    WorkloadSpec,
    ZipfWorkload,
)
from repro.workloads.base import WorkloadGenerator as _Base
from repro.workloads.spec import DEFAULT_CHUNK_SIZE

N_NODES = 63
N_REQUESTS = 400
ALGORITHMS = ["rotor-push", "random-push", "static-opt", "static-oblivious"]


def _factory(seed: int) -> CombinedLocalityWorkload:
    return CombinedLocalityWorkload(N_NODES, 1.4, 0.5, seed=seed)


def _spec_factory(seed: int) -> WorkloadSpec:
    return _factory(seed).to_spec()


def _results(runner, algorithms, n_jobs=1):
    """Build and execute ``runner``'s payloads of ``algorithms``, in order."""
    payloads = runner.build_payloads(algorithms, runner.trial_sources(_spec_factory))
    return payloads, execute_payloads(payloads, n_jobs)


class _SpeclessWorkload(WorkloadGenerator):
    """A workload without a spec, registered ad hoc by the pool test below."""

    name = "specless"

    def generate(self, n_requests):
        self._check_length(n_requests)
        return [self._rng.randrange(self.n_elements) for _ in range(n_requests)]


class TestPayloadConstruction:
    def test_trial_sources_stamp_the_trial_seeds(self):
        runner = TrialRunner(N_NODES, RunConfig(n_requests=50, n_trials=2, base_seed=7))
        sources = runner.trial_sources(_spec_factory)
        assert all(isinstance(source, SpecSource) for source in sources)
        assert [source.spec.seed for source in sources] == [7, 8]
        assert [source.spec for source in sources] == [_spec_factory(7), _spec_factory(8)]

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

    def test_spec_payloads_equal_materialised_baseline(self):
        config = RunConfig(n_requests=N_REQUESTS, n_trials=3, base_seed=5)
        # spec-shipped streaming path, parallel
        payloads, streamed = _results(TrialRunner(N_NODES, config), ALGORITHMS, n_jobs=4)
        for payload, result in zip(payloads, streamed):
            # serial materialised baseline: generate in the parent, serve whole
            baseline = simulate(
                payload.algorithm,
                _factory(config.base_seed + payload.trial).generate(N_REQUESTS),
                n_nodes=N_NODES,
                placement_seed=payload.placement_seed,
                seed=payload.algorithm_seed,
                keep_records=payload.keep_records,
                metadata={"trial": payload.trial},
            )
            assert result.to_dict() == baseline.to_dict()

    @pytest.mark.parametrize("chunk_size", [None, 61])
    def test_sweep_serial_vs_parallel_byte_identical(self, chunk_size, draw_sources_at):
        if chunk_size is not None:
            draw_sources_at(chunk_size)

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
                ),
                name="stream-check",
            )
            return repro.run(sweep)

        assert table(1).to_json() == table(4).to_json()

    def test_trial_plan_chunk_size_invariant(self, draw_sources_at):
        def table(chunk_size):
            draw_sources_at(chunk_size)
            return repro.run(
                TrialPlan(
                    n_nodes=N_NODES,
                    workload=_spec_factory(0).with_seed(None),
                    algorithms=("rotor-push", "move-half"),
                    config=RunConfig(n_requests=N_REQUESTS, n_trials=2),
                )
            )

        assert table(17).rows == table(10_000).rows

    @pytest.mark.parametrize("kernel", ["loaded", "hidden"])
    def test_a_stream_across_chunk_boundaries_equals_materialised(
        self, kernel, monkeypatch
    ):
        # three chunks: two whole ones and a 1,000-request tail
        n_requests = 2 * DEFAULT_CHUNK_SIZE + 1_000
        if kernel == "hidden":
            monkeypatch.setattr(cascade_kernel, "load", lambda: None)
        # pool workers fork from this process, so they see the kernel as it is
        parallel.shutdown_persistent_pool()
        runner = TrialRunner(N_NODES, RunConfig(n_requests=n_requests, n_trials=1))
        algorithms = ["rotor-push", "random-push"]
        try:
            payloads, serial = _results(runner, algorithms)
            _payloads, pooled = _results(runner, algorithms, n_jobs=2)
        finally:
            parallel.shutdown_persistent_pool()
        sequence = _factory(0).generate(n_requests)
        for payload, result, pooled_result in zip(payloads, serial, pooled):
            baseline = simulate(
                payload.algorithm,
                sequence,
                n_nodes=N_NODES,
                placement_seed=payload.placement_seed,
                seed=payload.algorithm_seed,
                metadata={"trial": 0},
            )
            assert result.n_requests == n_requests
            assert result.to_dict() == baseline.to_dict()
            assert pooled_result.to_dict() == baseline.to_dict()


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

    @pytest.fixture
    def ad_hoc_kind(self):
        """Register a throwaway kind; remove it afterwards, bumping the version
        so no pool forked while it was registered is reused."""
        from repro.workloads import register_workload
        from repro.workloads import spec as spec_module

        kind = "test-pool-rebuild-kind"
        register_workload(kind)(
            lambda params, seed: _SpeclessWorkload(int(params["n_elements"]), seed)
        )
        try:
            yield kind
        finally:
            del spec_module._REGISTRY[kind]
            spec_module._REGISTRY_VERSION += 1

    def test_pool_is_rebuilt_after_new_workload_registration(self, request):
        # forked workers snapshot the registry at pool creation; registering
        # a new kind must force a rebuild so workers can build it
        parallel.shutdown_persistent_pool()
        parallel.map_ordered(abs, list(range(-8, 0)), n_jobs=2)
        first = parallel._pool
        request.getfixturevalue("ad_hoc_kind")
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
        _results(runner, ["rotor-push", "move-half", "static-oblivious"])
        # one build per trial, not one per (trial, algorithm)
        assert len(builds) == 2
        runner_module._shared_chunks_cache.clear()

    def test_single_algorithm_sources_stay_unshared(self):
        runner = TrialRunner(N_NODES, RunConfig(n_requests=100, n_trials=2))
        payloads = runner.build_payloads(["rotor-push"], runner.trial_sources(_spec_factory))
        assert all(not p.source.shared for p in payloads)
        both = runner.build_payloads(
            ["rotor-push", "move-half"], runner.trial_sources(_spec_factory)
        )
        assert all(p.source.shared for p in both)

    def test_shared_and_unshared_results_identical(self):
        runner = TrialRunner(N_NODES, RunConfig(n_requests=200, n_trials=2, base_seed=3))
        payloads, shared = _results(runner, ["rotor-push", "move-half"])
        assert all(payload.source.shared for payload in payloads)
        _, lone_rotor = _results(runner, ["rotor-push"])
        assert [result.to_dict() for result in shared[::2]] == [
            result.to_dict() for result in lone_rotor
        ]
