"""Chunk transport across the runner/plan/pool plumbing.

Workers stream spec sources as NumPy chunks whenever NumPy is importable and
as list chunks otherwise, so a parallel run with ndarray chunks must be
bit-identical to a serial run on list chunks — the chunk type is a pure
throughput choice at every fan-out width.
"""

from __future__ import annotations

import pytest

import repro
import repro.sim.runner as runner_mod
from repro.core import backend as backend_mod
from repro.plans import RunConfig, SweepPlan
from repro.sim.runner import TrialRunner, compare_algorithms
from repro.workloads.composite import CombinedLocalityWorkload
from repro.workloads.spec import WorkloadSpec

ALGORITHMS = ["rotor-push", "random-push", "max-push", "static-oblivious"]
N_NODES = 63
N_REQUESTS = 400
N_TRIALS = 2


def factory(seed: int) -> CombinedLocalityWorkload:
    return CombinedLocalityWorkload(N_NODES, 1.4, 0.5, seed=seed)


def aggregates(n_jobs, chunk_size=None):
    outcome = compare_algorithms(
        ALGORITHMS,
        factory,
        n_nodes=N_NODES,
        config=RunConfig(
            n_requests=N_REQUESTS,
            n_trials=N_TRIALS,
            n_jobs=n_jobs,
            chunk_size=chunk_size,
        ),
    )
    return {
        name: (
            outcome[name].access_cost,
            outcome[name].adjustment_cost,
            outcome[name].total_cost,
        )
        for name in ALGORITHMS
    }


def force_list_chunks(monkeypatch) -> None:
    """Make in-process workers stream list chunks even with NumPy present.

    Switching ``HAS_NUMPY`` off instead would also switch the Zipf sampler to
    its pure-Python twin, which draws a different (equally seeded) stream.
    """
    original = runner_mod._chunks_of
    monkeypatch.setattr(
        runner_mod, "_chunks_of", lambda source, as_array: original(source, False)
    )


@pytest.fixture(scope="module")
def list_chunk_reference():
    """Serial aggregates served from list chunks through the scalar loops."""
    with pytest.MonkeyPatch.context() as patch:
        force_list_chunks(patch)
        return aggregates(n_jobs=1)


class TestChunkTransportAcrossJobs:
    def test_job_counts_are_bit_identical_to_list_chunks(self, list_chunk_reference):
        for n_jobs in (1, 4):
            assert aggregates(n_jobs) == list_chunk_reference, n_jobs

    def test_chunk_size_and_job_count_compose(self, list_chunk_reference):
        assert aggregates(n_jobs=4, chunk_size=37) == list_chunk_reference

    def test_backend_keyword_is_gone(self):
        with pytest.raises(TypeError):
            TrialRunner(N_NODES, RunConfig(n_requests=10, n_trials=1), backend="array")

    @pytest.mark.parametrize("numpy_present", [True, False])
    def test_worker_streams_ndarray_chunks_iff_numpy(self, monkeypatch, numpy_present):
        """Spec sources stream as ndarray chunks exactly when NumPy is importable."""
        if numpy_present and not backend_mod.HAS_NUMPY:
            pytest.skip("ndarray chunks need NumPy")
        from repro.sim.runner import SpecSource, TrialPayload, _execute_trial
        from repro.workloads.spec import WorkloadSpec

        monkeypatch.setattr(backend_mod, "HAS_NUMPY", numpy_present)
        seen = []
        original = runner_mod.simulate_stream

        def spy(name, chunks, **kwargs):
            chunks = list(chunks)
            seen.extend(type(chunk).__name__ for chunk in chunks)
            return original(name, chunks, **kwargs)

        monkeypatch.setattr(runner_mod, "simulate_stream", spy)
        spec = WorkloadSpec.create("uniform", seed=1, n_elements=N_NODES)
        _execute_trial(
            TrialPayload(
                algorithm="max-push",
                source=SpecSource(spec, 50, chunk_size=16),
                n_nodes=N_NODES,
                placement_seed=1,
                algorithm_seed=2,
                keep_records=False,
                trial=0,
            )
        )
        assert set(seen) == {"ndarray" if numpy_present else "list"}


class TestSweepChunkTransport:
    def test_sweep_results_identical_across_chunk_types(self, monkeypatch):
        def sweep_table(n_jobs):
            sweep = SweepPlan(
                workload=WorkloadSpec.create(
                    "combined-locality", n_elements=N_NODES, zipf_exponent=1.4
                ),
                algorithms=["rotor-push", "move-to-front"],
                points=[{"p": 0.2}, {"p": 0.8}],
                bind={"p": "repeat_probability"},
                n_nodes=N_NODES,
                config=RunConfig(
                    n_requests=N_REQUESTS, n_trials=N_TRIALS, n_jobs=n_jobs
                ),
            )
            return repro.run(sweep).rows

        # sweeps flatten to the same payload list; only the chunk type differs
        native = [sweep_table(1), sweep_table(4)]
        force_list_chunks(monkeypatch)
        reference = sweep_table(1)
        assert native == [reference, reference]


class TestSharedSourceMemo:
    def test_shared_chunks_memo_keys_on_transport(self):
        """List-chunk and array-chunk variants of one source must not collide."""
        if not backend_mod.HAS_NUMPY:
            pytest.skip("array transport needs NumPy")
        from repro.sim.runner import SpecSource, _chunks_of, _shared_chunks_cache

        spec = factory(3).to_spec()
        source = SpecSource(spec, 50, 16, shared=True)
        try:
            as_lists = _chunks_of(source, as_array=False)
            as_arrays = _chunks_of(source, as_array=True)
            assert all(isinstance(chunk, list) for chunk in as_lists)
            assert all(
                isinstance(chunk, backend_mod.np.ndarray) for chunk in as_arrays
            )
        finally:
            _shared_chunks_cache.clear()
