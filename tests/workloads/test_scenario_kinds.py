"""Scenario-library workload kinds: corpus, trace_file, round_robin_path, adversaries.

The spec→plan contract for every kind the scenario library registers:

* **spec round-trip** — building the spec reproduces the generator and its
  stream, bit for bit;
* **streaming equality** — ``iter_requests`` concatenates to ``generate``
  for any chunk size (chunk size is a memory knob, never semantics);
* **recipe fidelity** — ``corpus`` recipe specs rebuild exactly the
  corpus workloads of the synthetic books; ``trace_file`` specs
  replay a dump with its header metadata and refuse content drift;
* **adversary registry** — :class:`AdversarySpec` is validated at
  construction, JSON round-trips, and builds fresh adversary instances.
"""

from __future__ import annotations

from itertools import chain

import pytest

from repro.exceptions import WorkloadError
from repro.workloads import (
    AdversarySpec,
    MoveToFrontLowerBoundAdversary,
    RotorPushWorkingSetAdversary,
    RoundRobinPathWorkload,
    TraceFileWorkload,
    WorkloadSpec,
    build_adversary,
    build_workload,
    check_adversary_kind,
    registered_adversary_kinds,
    registered_kinds,
    synthetic_corpus_specs,
    trace_digest,
)
from repro.workloads.corpus import CorpusWorkload
from repro.workloads.synthetic_text import synthetic_corpus
from repro.workloads.trace_io import load_trace_workload, save_trace


class TestRegistry:
    def test_scenario_kinds_are_registered(self):
        assert set(registered_kinds()) >= {
            "corpus",
            "round_robin_path",
            "trace_file",
        }

    def test_adversary_kinds_are_registered(self):
        assert set(registered_adversary_kinds()) >= {
            "mtf-lower-bound",
            "rotor-working-set",
        }


class TestCorpusKind:
    def test_synthetic_specs_rebuild_the_workloads(self):
        workloads = [
            CorpusWorkload.from_book(book)
            for book in synthetic_corpus(n_books=3, scale=0.15)
        ]
        specs = synthetic_corpus_specs(n_books=3, scale=0.15)
        assert len(specs) == len(workloads)
        for spec, workload in zip(specs, workloads):
            rebuilt = build_workload(spec)
            assert rebuilt.title == workload.title
            assert rebuilt.n_elements == workload.n_elements
            assert rebuilt.full_sequence() == workload.full_sequence()

    def test_file_backed_spec(self, tmp_path):
        book = tmp_path / "book.txt"
        book.write_text("the quick brown fox jumps over the lazy dog " * 20)
        direct = CorpusWorkload.from_file(str(book))
        spec = WorkloadSpec.create("corpus", path=str(book), window=3)
        rebuilt = build_workload(spec)
        assert rebuilt.full_sequence() == direct.full_sequence()
        assert rebuilt.n_elements == direct.n_elements

    def test_streaming_equals_materialised(self):
        spec = synthetic_corpus_specs(n_books=1, scale=0.1)[0]
        expected = build_workload(spec).generate(500)
        for chunk_size in (1, 7, 64, 10_000):
            streamed = list(
                chain.from_iterable(
                    build_workload(spec).iter_requests(500, chunk_size)
                )
            )
            assert streamed == expected

    def test_spec_without_path_or_book_seed_rejected(self):
        with pytest.raises(WorkloadError, match="path.*book_seed|book_seed"):
            build_workload(WorkloadSpec.create("corpus", window=3))


class TestTraceFileKind:
    def save(self, tmp_path, fmt="text"):
        sequence = [0, 1, 2, 1, 0, 3, 2, 1] * 25
        return save_trace(
            str(tmp_path / f"trace.{fmt}"),
            sequence,
            n_elements=7,
            metadata={"generator": "unit-test", "seed": 5},
            fmt=fmt,
        ), sequence

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_metadata_round_trips(self, tmp_path, fmt):
        path, _ = self.save(tmp_path, fmt)
        workload = load_trace_workload(str(path))
        assert workload.metadata == {"generator": "unit-test", "seed": 5}
        assert workload.parameters()["metadata"]["generator"] == "unit-test"

    def test_spec_round_trip(self, tmp_path):
        path, sequence = self.save(tmp_path)
        workload = load_trace_workload(str(path))
        spec = workload.to_spec()
        assert spec.kind == "trace_file"
        assert spec.get("sha256") == trace_digest(sequence, 7)
        rebuilt = build_workload(spec)
        assert rebuilt.to_spec() == spec
        assert rebuilt.generate(200) == workload.generate(200)
        assert rebuilt.metadata == workload.metadata

    def test_spec_json_round_trip(self, tmp_path):
        path, _ = self.save(tmp_path)
        spec = load_trace_workload(str(path)).to_spec()
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_streaming_equals_materialised(self, tmp_path):
        path, _ = self.save(tmp_path)
        expected = load_trace_workload(str(path)).generate(150)
        streamed = list(
            chain.from_iterable(
                load_trace_workload(str(path)).iter_requests(150, 13)
            )
        )
        assert streamed == expected

    def test_content_drift_is_refused(self, tmp_path):
        path, sequence = self.save(tmp_path)
        spec = load_trace_workload(str(path)).to_spec()
        save_trace(str(path), sequence[:10], n_elements=7)  # overwrite
        with pytest.raises(WorkloadError, match="changed since its spec"):
            build_workload(spec)

    def test_declared_universe_mismatch_is_refused(self, tmp_path):
        path, _ = self.save(tmp_path)
        spec = WorkloadSpec.create("trace_file", path=str(path), n_elements=99)
        with pytest.raises(WorkloadError, match="universe"):
            build_workload(spec)

    def test_digest_mismatch_message_names_the_file(self, tmp_path):
        path, _ = self.save(tmp_path)
        with pytest.raises(WorkloadError, match="trace"):
            TraceFileWorkload(str(path), expected_sha256="0" * 64)


class TestRoundRobinPathKind:
    def test_spec_round_trip(self):
        workload = RoundRobinPathWorkload(4)
        spec = workload.to_spec()
        assert spec.kind == "round_robin_path"
        rebuilt = build_workload(spec)
        assert rebuilt.to_spec() == spec
        assert rebuilt.generate(100) == workload.generate(100)

    @pytest.mark.parametrize("chunk_size", [1, 3, 50, 1_000])
    def test_streaming_equals_materialised(self, chunk_size):
        expected = RoundRobinPathWorkload(5).generate(200)
        streamed = list(
            chain.from_iterable(
                RoundRobinPathWorkload(5).iter_requests(200, chunk_size)
            )
        )
        assert streamed == expected

    def test_declared_universe_mismatch_is_refused(self):
        spec = WorkloadSpec.create("round_robin_path", depth=4, n_elements=3)
        with pytest.raises(WorkloadError, match="universe"):
            build_workload(spec)


class TestAdversarySpec:
    def test_build_constructs_the_right_classes(self):
        rotor = AdversarySpec.create("rotor-working-set", depth=4).build()
        assert isinstance(rotor, RotorPushWorkingSetAdversary)
        mtf = build_adversary(AdversarySpec.create("mtf-lower-bound", depth=3))
        assert isinstance(mtf, MoveToFrontLowerBoundAdversary)

    def test_unknown_kind_rejected_eagerly(self):
        with pytest.raises(WorkloadError, match="unknown adversary kind"):
            AdversarySpec.create("no-such-adversary", depth=4)
        with pytest.raises(WorkloadError, match="registered"):
            check_adversary_kind("also-missing")

    def test_json_round_trip(self):
        spec = AdversarySpec.create("rotor-working-set", depth=6)
        assert AdversarySpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict() == {
            "kind": "rotor-working-set",
            "params": {"depth": 6},
        }

    def test_build_gives_fresh_state(self):
        spec = AdversarySpec.create("rotor-working-set", depth=4)
        first_sequence, first_costs = spec.build().generate_with_costs(300)
        second_sequence, second_costs = spec.build().generate_with_costs(300)
        assert first_sequence == second_sequence
        assert [c.access_cost for c in first_costs] == [
            c.access_cost for c in second_costs
        ]

    def test_spec_is_hashable(self):
        spec = AdversarySpec.create("mtf-lower-bound", depth=3)
        assert hash(spec) == hash(AdversarySpec.create("mtf-lower-bound", depth=3))
