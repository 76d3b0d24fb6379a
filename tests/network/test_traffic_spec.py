"""TrafficSpec: streaming == materialised, round-trips, eager validation.

The acceptance contract of the spec-shipped traffic pipeline:

* ``iter_trace`` chunked output concatenates to exactly the materialised
  :func:`trace_from_workloads` trace, for every interleaving policy × every
  per-source workload kind × every chunk size (the chunk size is a memory
  knob, never a semantics knob);
* a spec survives a JSON round-trip equal (and hash-equal) to the original;
* bad documents and bad constructions fail eagerly with name-listing errors.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.exceptions import WorkloadError
from repro.network.traffic import (
    INTERLEAVINGS,
    TrafficSpec,
    iter_interleaving,
    trace_from_workloads,
)
from repro.workloads.spec import WorkloadSpec, build_workload

N_NODES = 16

#: One spec-able workload template per registered paper kind (seeded, so the
#: specs are runnable as-is).
WORKLOAD_TEMPLATES = {
    "uniform": WorkloadSpec.create("uniform", n_elements=N_NODES, seed=3),
    "zipf": WorkloadSpec.create("zipf", n_elements=N_NODES, exponent=1.5, seed=4),
    "temporal": WorkloadSpec.create(
        "temporal", n_elements=N_NODES, repeat_probability=0.5, seed=5
    ),
    "combined-locality": WorkloadSpec.create(
        "combined-locality",
        n_elements=N_NODES,
        zipf_exponent=1.4,
        repeat_probability=0.3,
        seed=6,
    ),
    "markov": WorkloadSpec.create(
        "markov",
        n_elements=N_NODES,
        n_neighbours=3,
        self_loop=0.2,
        neighbour_probability=0.5,
        seed=7,
    ),
}


def spec_for(policy: str, kinds=("uniform", "zipf", "temporal")) -> TrafficSpec:
    sources = {
        2 * index + 1: WORKLOAD_TEMPLATES[kind] for index, kind in enumerate(kinds)
    }
    weights = (
        {source: 1.0 + source for source in sources} if policy == "weighted" else None
    )
    return TrafficSpec.create(
        N_NODES, sources, interleaving=policy, weights=weights, seed=9
    )


def streamed_pairs(spec: TrafficSpec, requests_per_source: int, chunk_size: int):
    return [
        (source, destination)
        for sources, destinations in spec.iter_trace(requests_per_source, chunk_size)
        for source, destination in zip(sources, destinations)
    ]


class TestStreamingEqualsMaterialised:
    @pytest.mark.parametrize("policy", INTERLEAVINGS)
    @pytest.mark.parametrize("kind", sorted(WORKLOAD_TEMPLATES))
    def test_policy_times_kind(self, policy, kind):
        spec = spec_for(policy, kinds=(kind, kind, kind))
        trace = spec.build_trace(40)
        expected = [(r.source, r.destination) for r in trace.requests]
        assert streamed_pairs(spec, 40, 7) == expected

    @pytest.mark.parametrize("policy", INTERLEAVINGS)
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 10_000])
    def test_chunk_size_is_a_memory_knob(self, policy, chunk_size):
        spec = spec_for(policy)
        expected = [(r.source, r.destination) for r in spec.build_trace(33).requests]
        assert streamed_pairs(spec, 33, chunk_size) == expected

    def test_materialised_path_is_trace_from_workloads(self):
        spec = spec_for("round_robin")
        workloads = {
            source: build_workload(workload) for source, workload in spec.sources
        }
        reference = trace_from_workloads(
            N_NODES, workloads, 25, interleave_seed=9, interleave="round_robin"
        )
        assert spec.build_trace(25) == reference

    @pytest.mark.parametrize("policy", INTERLEAVINGS)
    def test_trace_from_workloads_is_insertion_order_independent(self, policy):
        # both entry points draw from the canonical ascending source order,
        # whatever order the mapping was built in
        spec = spec_for(policy)
        shuffled = dict(reversed(spec.sources))
        reference = spec.build_trace(15)
        weights = spec.weight_dict() or None
        assert (
            trace_from_workloads(
                N_NODES,
                {s: build_workload(w) for s, w in shuffled.items()},
                15,
                interleave_seed=9,
                interleave=policy,
                weights=weights,
            )
            == reference
        )

    def test_every_source_emits_exactly_requests_per_source(self):
        for policy in INTERLEAVINGS:
            spec = spec_for(policy)
            trace = spec.build_trace(21)
            counts = {
                source: len(seq)
                for source, seq in trace.per_source_sequences().items()
            }
            assert counts == {source: 21 for source in spec.source_ids()}

    def test_zero_requests_is_an_empty_trace(self):
        spec = spec_for("uniform_pairs")
        assert list(spec.iter_trace(0)) == []
        assert len(spec.build_trace(0)) == 0

    def test_per_source_relative_order_is_the_workload_stream(self):
        # whatever the interleaving, each source's destinations arrive in its
        # own workload order (with the skip-self remap applied)
        spec = spec_for("weighted")
        sequences = spec.build_trace(30).per_source_sequences()
        for source, workload in spec.sources:
            raw = build_workload(workload).generate(30)
            replacement = (source + 1) % N_NODES
            expected = [d if d != source else replacement for d in raw]
            assert sequences[source] == expected


class TestInterleavingPolicies:
    def test_round_robin_is_deterministic_cycling(self):
        order = list(iter_interleaving("round_robin", [3, 1, 5], 2))
        assert order == [3, 1, 5, 3, 1, 5]

    def test_random_policies_are_seed_deterministic(self):
        for policy in ("uniform_pairs", "weighted"):
            first = list(iter_interleaving(policy, [0, 1, 2], 20, seed=13))
            second = list(iter_interleaving(policy, [0, 1, 2], 20, seed=13))
            other = list(iter_interleaving(policy, [0, 1, 2], 20, seed=14))
            assert first == second
            assert first != other

    def test_weighted_front_loads_heavy_sources(self):
        heavy, light = 0, 1
        order = list(
            iter_interleaving(
                "weighted", [heavy, light], 200, seed=1, weights={heavy: 50.0}
            )
        )
        # the heavy source should finish its budget well before the light one
        assert order.index(light) > 5
        assert sum(1 for s in order[:200] if s == heavy) > 150

    def test_unknown_policy_lists_the_registered_ones(self):
        with pytest.raises(WorkloadError, match="round_robin"):
            list(iter_interleaving("shuffle", [0, 1], 3))

    def test_validation_is_eager_not_deferred_to_first_iteration(self):
        # the call itself must raise; a never-consumed iterator would
        # otherwise hide the bad argument until it fails far from the caller
        with pytest.raises(WorkloadError):
            iter_interleaving("bogus", [0, 1], 3)
        with pytest.raises(WorkloadError):
            iter_interleaving("round_robin", [0, 1], -1)
        spec = spec_for("round_robin")
        with pytest.raises(WorkloadError):
            spec.iter_trace(-5)
        with pytest.raises(WorkloadError):
            spec.iter_trace(10, chunk_size=0)


def linear_walk_uniform_pairs(sources, requests_per_source, seed):
    """The O(k)-per-draw ``uniform_pairs`` interleaver the Fenwick tree replaced."""
    rng = random.Random(seed)
    remaining = [requests_per_source] * len(sources)
    total = requests_per_source * len(sources)
    while total:
        draw = rng.randrange(total)
        for index, count in enumerate(remaining):
            if draw < count:
                break
            draw -= count
        remaining[index] -= 1
        total -= 1
        yield sources[index]


class TestFenwickUniformPairs:
    """The log-time draw picks the same source as the linear walk, draw for draw."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("requests_per_source", [0, 1, 7, 120])
    @pytest.mark.parametrize("n_sources", [1, 2, 3, 16, 255, 256, 2_048])
    def test_matches_linear_walk(self, n_sources, requests_per_source, seed):
        # spaced, unsorted identifiers: the draw picks a position, not an id
        sources = [(7 * index + 3) % 4_099 for index in range(n_sources)]
        fenwick = list(
            iter_interleaving("uniform_pairs", sources, requests_per_source, seed)
        )
        assert fenwick == list(
            linear_walk_uniform_pairs(sources, requests_per_source, seed)
        )
        assert len(fenwick) == n_sources * requests_per_source


class TestSpecValidation:
    def test_rejects_unknown_interleaving(self):
        with pytest.raises(WorkloadError, match="uniform_pairs"):
            TrafficSpec.create(
                N_NODES, {0: WORKLOAD_TEMPLATES["uniform"]}, interleaving="shuffle"
            )

    def test_rejects_unknown_workload_kind_eagerly(self):
        with pytest.raises(WorkloadError, match="registered kinds"):
            TrafficSpec.create(
                N_NODES, {0: WorkloadSpec(kind="zipff", params=(), seed=None)}
            )

    def test_rejects_universe_mismatch(self):
        with pytest.raises(WorkloadError, match="does not match"):
            TrafficSpec.create(
                N_NODES, {0: WorkloadSpec.create("uniform", n_elements=8)}
            )

    def test_rejects_out_of_range_and_duplicate_sources(self):
        with pytest.raises(WorkloadError, match="outside"):
            TrafficSpec.create(N_NODES, {N_NODES: WORKLOAD_TEMPLATES["uniform"]})
        with pytest.raises(WorkloadError, match="duplicate"):
            TrafficSpec(
                n_nodes=N_NODES,
                sources=(
                    (1, WORKLOAD_TEMPLATES["uniform"]),
                    (1, WORKLOAD_TEMPLATES["zipf"]),
                ),
            )

    def test_rejects_weights_for_unweighted_policies(self):
        with pytest.raises(WorkloadError, match="weighted"):
            TrafficSpec.create(
                N_NODES,
                {0: WORKLOAD_TEMPLATES["uniform"]},
                interleaving="round_robin",
                weights={0: 2.0},
            )

    def test_rejects_bad_weights(self):
        with pytest.raises(WorkloadError, match="positive"):
            TrafficSpec.create(
                N_NODES,
                {0: WORKLOAD_TEMPLATES["uniform"], 1: WORKLOAD_TEMPLATES["zipf"]},
                interleaving="weighted",
                weights={0: -1.0},
            )
        with pytest.raises(WorkloadError, match="non-sources"):
            TrafficSpec.create(
                N_NODES,
                {0: WORKLOAD_TEMPLATES["uniform"]},
                interleaving="weighted",
                weights={5: 1.0},
            )

    def test_short_trace_backed_source_fails_with_a_named_error(self):
        # a fixed-sequence workload truncates at its trace length; both the
        # materialised and the streaming path must name the short source
        # instead of dying with an index/iterator error mid-interleave
        spec = TrafficSpec.create(
            N_NODES,
            {
                0: WorkloadSpec.create(
                    "fixed-sequence", n_elements=N_NODES, sequence=(1, 2, 3)
                ),
                1: WORKLOAD_TEMPLATES["uniform"],
            },
        )
        with pytest.raises(WorkloadError, match="source 0"):
            spec.build_trace(10)
        with pytest.raises(WorkloadError, match="source 0"):
            streamed_pairs(spec, 10, 4)
        # exactly the trace length is fine on both paths
        assert streamed_pairs(spec, 3, 2) == [
            (r.source, r.destination) for r in spec.build_trace(3).requests
        ]

    def test_needs_at_least_one_source_and_two_nodes(self):
        with pytest.raises(WorkloadError, match="at least one source"):
            TrafficSpec.create(N_NODES, {})
        with pytest.raises(WorkloadError, match="two network nodes"):
            TrafficSpec.create(1, {0: WORKLOAD_TEMPLATES["uniform"]})


class TestRoundTripAndSeeding:
    @pytest.mark.parametrize("policy", INTERLEAVINGS)
    def test_json_round_trip_is_identity(self, policy):
        spec = spec_for(policy)
        document = json.loads(json.dumps(spec.to_dict()))
        revived = TrafficSpec.from_dict(document)
        assert revived == spec
        assert hash(revived) == hash(spec)

    def test_bad_documents_rejected(self):
        with pytest.raises(WorkloadError, match="not a traffic-spec document"):
            TrafficSpec.from_dict({"n_nodes": 4})
        with pytest.raises(WorkloadError, match="integer node identifiers"):
            TrafficSpec.from_dict(
                {
                    "n_nodes": N_NODES,
                    "sources": {
                        "zero": WORKLOAD_TEMPLATES["uniform"].to_dict()
                    },
                }
            )

    def test_with_seed_stamps_interleaving_and_every_source(self):
        template = TrafficSpec.create(
            N_NODES,
            {
                0: WorkloadSpec.create("uniform", n_elements=N_NODES),
                5: WorkloadSpec.create("uniform", n_elements=N_NODES),
            },
        )
        seeded = template.with_seed(100)
        assert seeded.seed == 100
        workload_seeds = [spec.seed for _source, spec in seeded.sources]
        assert len(set(workload_seeds)) == len(workload_seeds)
        assert all(seed is not None for seed in workload_seeds)
        # pure function of the seed: re-stamping reproduces the same spec
        assert template.with_seed(100) == seeded
        assert template.with_seed(101) != seeded

    def test_trial_seeds_never_collide_across_sources(self):
        template = TrafficSpec.create(
            N_NODES,
            {s: WorkloadSpec.create("uniform", n_elements=N_NODES) for s in range(4)},
        )
        seen = set()
        for trial_seed in range(50):
            for _source, spec in template.with_seed(trial_seed).sources:
                assert spec.seed not in seen
                seen.add(spec.seed)
