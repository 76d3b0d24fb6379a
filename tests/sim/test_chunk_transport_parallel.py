"""Chunk transport across the runner/plan/pool plumbing.

Workers stream spec sources as the ``array('q')`` chunks the kernel drew,
and as lists where it drew nothing, so a parallel run on those chunks must
be bit-identical to a serial run on list chunks — the chunk type is a pure
throughput choice at every fan-out width.
"""

from __future__ import annotations

import pytest

import repro
import repro.sim.runner as runner_mod
from repro.algorithms import cascade_kernel
from repro.plans import RunConfig, SweepPlan, TrialPlan
from repro.plans.execute import compile_plan
from repro.sim.runner import TrialRunner, execute_payloads
from repro.workloads.composite import CombinedLocalityWorkload
from repro.workloads.spec import DEFAULT_CHUNK_SIZE, WorkloadSpec

ALGORITHMS = ["rotor-push", "random-push", "max-push", "static-oblivious"]
N_NODES = 63
N_REQUESTS = 400
N_TRIALS = 2


def factory(seed: int) -> CombinedLocalityWorkload:
    return CombinedLocalityWorkload(N_NODES, 1.4, 0.5, seed=seed)


def trial_results(n_jobs):
    """Every (trial, algorithm) result of one comparison, in payload order."""
    plan = TrialPlan(
        n_nodes=N_NODES,
        workload=factory(0).to_spec().with_seed(None),
        algorithms=tuple(ALGORITHMS),
        config=RunConfig(n_requests=N_REQUESTS, n_trials=N_TRIALS),
    )
    payloads = compile_plan(plan).payloads
    return [result.to_dict() for result in execute_payloads(payloads, n_jobs)]


def force_list_chunks(monkeypatch) -> None:
    """Make in-process workers stream list chunks where the kernel drew arrays.

    Hiding the kernel instead would also move the draws to the Python loops.
    """
    original = runner_mod._chunks_of
    monkeypatch.setattr(
        runner_mod,
        "_chunks_of",
        lambda source: [list(chunk) for chunk in original(source)],
    )


@pytest.fixture(scope="module")
def list_chunk_reference():
    """Serial results served from list chunks."""
    with pytest.MonkeyPatch.context() as patch:
        force_list_chunks(patch)
        return trial_results(n_jobs=1)


class TestChunkTransportAcrossJobs:
    def test_job_counts_are_bit_identical_to_list_chunks(self, list_chunk_reference):
        for n_jobs in (1, 4):
            assert trial_results(n_jobs) == list_chunk_reference, n_jobs

    def test_chunk_size_and_job_count_compose(
        self, list_chunk_reference, draw_sources_at
    ):
        draw_sources_at(37)
        assert trial_results(n_jobs=4) == list_chunk_reference

    def test_backend_keyword_is_gone(self):
        with pytest.raises(TypeError):
            TrialRunner(N_NODES, RunConfig(n_requests=10, n_trials=1), backend="array")

    @pytest.mark.parametrize("kernel_loaded", [True, False])
    def test_worker_streams_array_chunks_iff_the_kernel_drew(
        self, monkeypatch, kernel_loaded
    ):
        """Uniform sources stream the kernel's ``array('q')`` draws, else lists."""
        from repro.sim.runner import SpecSource, TrialPayload, _execute_trial

        loaded = cascade_kernel.load()
        if kernel_loaded and (loaded is None or not loaded.rng_port_matches):
            pytest.skip("the kernel's draws need the kernel and its RNG check")
        if not kernel_loaded:
            monkeypatch.setattr(cascade_kernel, "load", lambda: None)
        seen = []
        original = runner_mod._chunks_of

        def spy(source):
            chunks = list(original(source))
            seen.extend(type(chunk).__name__ for chunk in chunks)
            return chunks

        monkeypatch.setattr(runner_mod, "_chunks_of", spy)
        spec = WorkloadSpec.create("uniform", seed=1, n_elements=N_NODES)
        _execute_trial(
            TrialPayload(
                algorithm="max-push",
                source=SpecSource(spec, DEFAULT_CHUNK_SIZE + 300),
                n_nodes=N_NODES,
                placement_seed=1,
                algorithm_seed=2,
                keep_records=False,
                trial=0,
            )
        )
        assert seen == ["array" if kernel_loaded else "list"] * 2


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
