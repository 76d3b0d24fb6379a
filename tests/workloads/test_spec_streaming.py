"""WorkloadSpec protocol and streaming generation.

Two guarantees are pinned for *every* registered workload kind:

* **spec round-trip** — ``build_workload(spec)`` reproduces the generator:
  same spec back out, same parameters, same generated stream;
* **streaming equality** — ``iter_requests(n, chunk)`` concatenates to exactly
  ``generate(n)`` for any chunk size.
"""

from __future__ import annotations

import pickle
from itertools import chain

import pytest

from repro.exceptions import WorkloadError
from repro.workloads import (
    CombinedLocalityWorkload,
    MarkovWorkload,
    SequenceWorkload,
    TemporalWorkload,
    UniformWorkload,
    WorkloadSpec,
    ZipfWorkload,
    build_workload,
    registered_kinds,
)
from repro.workloads.corpus import CorpusWorkload

N_REQUESTS = 600

#: One representative constructor per registered kind (plus nested variants).
FACTORIES = {
    "uniform": lambda: UniformWorkload(63, seed=11),
    "zipf": lambda: ZipfWorkload(63, 1.6, seed=11),
    "zipf-unpermuted": lambda: ZipfWorkload(63, 1.6, seed=11, permute_identifiers=False),
    "temporal": lambda: TemporalWorkload(63, 0.6, seed=11),
    "temporal-nested": lambda: TemporalWorkload(
        63, 0.6, seed=11, base=ZipfWorkload(63, 2.0, seed=4)
    ),
    "combined-locality": lambda: CombinedLocalityWorkload(63, 1.6, 0.5, seed=11),
    "markov": lambda: MarkovWorkload(63, seed=11),
    # a nested spec whose own generator nests a private Zipf stream
    "temporal-over-combined": lambda: TemporalWorkload(
        63, 0.3, seed=11, base=CombinedLocalityWorkload(63, 2.0, 0.5, seed=4)
    ),
    "fixed-sequence": lambda: SequenceWorkload(63, list(range(60)) * 12),
}


@pytest.fixture(params=sorted(FACTORIES))
def factory(request):
    return FACTORIES[request.param]


class TestSpecRoundTrip:
    def test_registry_covers_all_core_kinds(self):
        assert set(registered_kinds()) >= {
            "combined-locality",
            "fixed-sequence",
            "markov",
            "temporal",
            "uniform",
            "zipf",
        }

    def test_spec_build_spec_round_trip(self, factory):
        spec = factory().to_spec()
        assert spec is not None
        rebuilt = build_workload(spec)
        assert rebuilt.to_spec() == spec

    def test_build_reproduces_the_stream(self, factory):
        expected = factory().generate(N_REQUESTS)
        assert build_workload(factory().to_spec()).generate(N_REQUESTS) == expected

    def test_build_reproduces_parameters(self, factory):
        workload = factory()
        rebuilt = build_workload(workload.to_spec())
        if not isinstance(workload, CorpusWorkload):
            assert rebuilt.parameters() == workload.parameters()

    def test_spec_is_hashable_and_picklable(self, factory):
        spec = factory().to_spec()
        assert hash(spec) == hash(factory().to_spec())
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_spec_taken_before_generation_is_pristine(self, factory):
        workload = factory()
        spec = workload.to_spec()
        workload.generate(N_REQUESTS)  # consume RNG state
        # the earlier spec still describes the *fresh* generator
        assert build_workload(spec).generate(N_REQUESTS) == factory().generate(N_REQUESTS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(WorkloadError):
            build_workload(WorkloadSpec.create("no-such-kind", n_elements=3))

    def test_to_dict_is_json_friendly(self):
        spec = FACTORIES["temporal-nested"]().to_spec()
        as_dict = spec.to_dict()
        assert as_dict["kind"] == "temporal"
        assert as_dict["params"]["base"]["kind"] == "zipf"

    def test_corpus_ships_as_fixed_sequence(self):
        corpus = CorpusWorkload("book", "abcabcabcadbcabffg" * 4)
        spec = corpus.to_spec()
        assert spec.kind == "fixed-sequence"
        assert build_workload(spec).generate(20) == corpus.generate(20)


class TestStreaming:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 97, 600, 10_000])
    def test_chunked_stream_equals_generate(self, factory, chunk_size):
        expected = factory().generate(N_REQUESTS)
        streamed = list(
            chain.from_iterable(factory().iter_requests(N_REQUESTS, chunk_size))
        )
        assert streamed == expected

    def test_zero_requests_yields_nothing(self, factory):
        assert list(factory().iter_requests(0)) == []

    def test_invalid_chunk_size_rejected(self, factory):
        with pytest.raises(WorkloadError):
            list(factory().iter_requests(10, 0))

    def test_negative_request_count_rejected(self, factory):
        with pytest.raises(WorkloadError):
            list(factory().iter_requests(-1))

    def test_chunk_lengths_sum_to_request_count(self, factory):
        chunks = list(factory().iter_requests(N_REQUESTS, 128))
        assert sum(len(chunk) for chunk in chunks) == N_REQUESTS
        assert all(len(chunk) <= 128 for chunk in chunks)
