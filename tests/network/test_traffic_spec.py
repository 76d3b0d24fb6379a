"""TrafficSpec: streaming == materialised, round-trips, eager validation.

The acceptance contract of the spec-shipped traffic pipeline:

* ``iter_trace`` chunked output concatenates to exactly the trace
  :func:`merged_pairs` materialises here, ``iter_interleaving``'s order over
  the per-source streams of ``iter_source_streams``, for every interleaving
  policy × every per-source workload kind × every chunk size (the chunk size
  is a memory knob, never a semantics knob);
* a spec survives a JSON round-trip equal (and hash-equal) to the original;
* bad documents and bad constructions fail eagerly with name-listing errors.
"""

from __future__ import annotations

import json
import random
from itertools import islice

import pytest

from repro.algorithms import cascade_kernel
from repro.algorithms.registry import AlgorithmSpec
from repro.exceptions import WorkloadError
from repro.network.traffic import (
    INTERLEAVINGS,
    SOURCE_SEED_STRIDE,
    TrafficSpec,
    iter_interleaving,
)
from repro.resilience.store import payload_key
from repro.sim.runner import TrafficSource, TrialPayload
from repro.workloads.spec import WorkloadSpec, build_workload, registered_kinds

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


def merged_pairs(spec: TrafficSpec, requests_per_source: int):
    """The whole trace, merged here: the spec's ``iter_interleaving`` order
    of sources, each taking the next destination of its own stream from
    ``iter_source_streams``."""
    feeds = {
        source: iter([destination for chunk in chunks for destination in chunk])
        for source, chunks in spec.iter_source_streams(requests_per_source)
    }
    order = iter_interleaving(
        spec.interleaving,
        spec.source_ids(),
        requests_per_source,
        spec.seed,
        spec.weight_dict() or None,
    )
    return [(source, next(feeds[source])) for source in order]


class TestStreamingEqualsMaterialised:
    @pytest.mark.parametrize("policy", INTERLEAVINGS)
    @pytest.mark.parametrize("kind", sorted(WORKLOAD_TEMPLATES))
    def test_policy_times_kind(self, policy, kind):
        spec = spec_for(policy, kinds=(kind, kind, kind))
        assert streamed_pairs(spec, 40, 7) == merged_pairs(spec, 40)

    @pytest.mark.parametrize("policy", INTERLEAVINGS)
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 10_000])
    def test_chunk_size_is_a_memory_knob(self, policy, chunk_size):
        spec = spec_for(policy)
        assert streamed_pairs(spec, 33, chunk_size) == merged_pairs(spec, 33)

    @pytest.mark.parametrize("policy", INTERLEAVINGS)
    def test_trace_merges_the_generated_workloads(self, policy):
        # a reference outside the spec's streams: each workload built and
        # drawn whole with ``generate``, remapped off its source, merged in
        # the spec's interleaving order
        spec = spec_for(policy, kinds=("markov", "zipf", "combined-locality"))
        feeds = {}
        for source, workload in spec.sources:
            replacement = (source + 1) % N_NODES
            feeds[source] = iter(
                [d if d != source else replacement for d in build_workload(workload).generate(25)]
            )
        order = iter_interleaving(policy, spec.source_ids(), 25, 9, spec.weight_dict() or None)
        assert streamed_pairs(spec, 25, 6) == [(source, next(feeds[source])) for source in order]

    @pytest.mark.parametrize("policy", INTERLEAVINGS)
    def test_spec_is_insertion_order_independent(self, policy):
        # a spec draws from the canonical ascending source order, whatever
        # order the mapping was built in
        spec = spec_for(policy)
        shuffled = TrafficSpec(
            n_nodes=N_NODES,
            sources=tuple(reversed(spec.sources)),
            interleaving=policy,
            weights=tuple(reversed(spec.weights)),
            seed=9,
        )
        assert streamed_pairs(shuffled, 15, 4) == streamed_pairs(spec, 15, 4)

    def test_every_source_emits_exactly_requests_per_source(self):
        for policy in INTERLEAVINGS:
            spec = spec_for(policy)
            sources = [source for source, _destination in streamed_pairs(spec, 21, 5)]
            counts = {source: sources.count(source) for source in set(sources)}
            assert counts == {source: 21 for source in spec.source_ids()}

    def test_zero_requests_is_an_empty_trace(self):
        spec = spec_for("uniform_pairs")
        assert list(spec.iter_trace(0)) == []

    def test_per_source_relative_order_is_the_workload_stream(self):
        # whatever the interleaving, each source's destinations arrive in its
        # own workload order (with the skip-self remap applied)
        spec = spec_for("weighted")
        sequences = {}
        for source, destination in streamed_pairs(spec, 30, 8):
            sequences.setdefault(source, []).append(destination)
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

    @pytest.mark.parametrize(
        "sources, requests_per_source",
        [([4, 0, 9], (2**32 - 1) // 3), ([4, 0], 2**31)],
        ids=["2**32-1", "2**32"],
    )
    def test_totals_past_32_bits_match_linear_walk(self, sources, requests_per_source):
        # the first draws are randrange(2**32 - 1) and randrange(2**32): the
        # last bound of one 32-bit word and the first of two
        drawn = islice(iter_interleaving("uniform_pairs", sources, requests_per_source, 5), 300)
        expected = linear_walk_uniform_pairs(sources, requests_per_source, 5)
        assert list(drawn) == list(islice(expected, 300))

    @pytest.mark.parametrize(
        "seed, sources",
        [(None, [1, 2, 3]), (3.0, [1, 2, 3]), ("trial-3", [1, 2, 3]), (3, [1, True, 3])],
        ids=["none-seed", "float-seed", "str-seed", "bool-source"],
    )
    def test_non_int_seeds_and_sources_match_linear_walk(self, seed, sources):
        drawn = list(iter_interleaving("uniform_pairs", sources, 100, seed))
        if seed is not None:
            expected = list(linear_walk_uniform_pairs(sources, 100, seed))
            assert drawn == expected
            # the very source objects: True stays a bool
            assert list(map(type, drawn)) == list(map(type, expected))


#: A 256-source trace of 120 requests per source: the perfbench
#: ``multisource_256`` shape on a smaller network, with every paper kind.
def many_source_spec() -> TrafficSpec:
    n_nodes = 300
    kinds = [
        WorkloadSpec.create("uniform", n_elements=n_nodes),
        WorkloadSpec.create("zipf", n_elements=n_nodes, exponent=1.5),
        WorkloadSpec.create("temporal", n_elements=n_nodes, repeat_probability=0.5),
        WorkloadSpec.create(
            "combined-locality", n_elements=n_nodes, zipf_exponent=1.4, repeat_probability=0.3
        ),
    ]
    sources = sorted(random.Random(2).sample(range(n_nodes), 256))
    spec = TrafficSpec.create(
        n_nodes,
        {source: kinds[index % len(kinds)] for index, source in enumerate(sources)},
        interleaving="uniform_pairs",
    )
    return spec.with_seed(17)


class TestKernelTraceChunks:
    """The bulk merge equals the merged reference, with the workloads drawn
    on the kernel and on the Python loops."""

    @pytest.fixture(scope="class")
    def reference(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cascade_kernel, "load", lambda: None)
            return merged_pairs(many_source_spec(), 120)

    @pytest.mark.parametrize("path", ["kernel", "python"])
    @pytest.mark.parametrize("chunk_size", [1, 7, 256, 30_720])
    def test_chunks_concatenate_to_the_materialised_trace(
        self, reference, path, chunk_size, monkeypatch
    ):
        if path == "python":
            monkeypatch.setattr(cascade_kernel, "load", lambda: None)
        spec = many_source_spec()
        chunks = list(spec.iter_trace(120, chunk_size))
        assert all(len(sources) == chunk_size for sources, _ in chunks[:-1])
        pairs = [pair for sources, destinations in chunks for pair in zip(sources, destinations)]
        assert pairs == reference

    @pytest.mark.parametrize("chunk_size", [1, 5, 64])
    def test_a_workload_that_runs_dry_names_its_source(self, chunk_size):
        short = WorkloadSpec.create("fixed-sequence", n_elements=N_NODES, sequence=(3, 4, 5))
        spec = TrafficSpec.create(
            N_NODES, {1: WORKLOAD_TEMPLATES["uniform"], 6: short}, interleaving="round_robin"
        )
        streamed = []
        with pytest.raises(WorkloadError, match="source 6 ran dry after 3 requests"):
            for sources, destinations in spec.iter_trace(5, chunk_size):
                streamed += zip(sources, destinations)
        # the 8th request is source 6's 4th; the chunks before its chunk arrived whole
        assert len(streamed) == 7 - 7 % chunk_size


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
        # a fixed-sequence workload truncates at its trace length; the
        # stream must name the short source instead of dying with an
        # index/iterator error mid-interleave
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
            streamed_pairs(spec, 10, 4)
        # exactly the trace length is fine
        assert streamed_pairs(spec, 3, 2) == merged_pairs(spec, 3)

    def test_a_seeded_spec_needs_seeded_sources(self):
        # the seed orders the merge only: an unseeded source would draw a
        # different stream on every call
        unseeded = WorkloadSpec.create("uniform", n_elements=N_NODES)
        sources = {1: unseeded, 4: WORKLOAD_TEMPLATES["zipf"], 6: unseeded}
        with pytest.raises(WorkloadError, match=r"sources \[1, 6\] have no seed"):
            TrafficSpec.create(N_NODES, sources, seed=5)
        template = TrafficSpec.create(N_NODES, sources)
        assert template.seed is None
        stamped = template.with_seed(5)
        assert all(spec.seed is not None for _source, spec in stamped.sources)
        assert TrafficSpec.create(N_NODES, dict(stamped.sources), seed=5) == stamped

    def test_needs_at_least_one_source_and_two_nodes(self):
        with pytest.raises(WorkloadError, match="at least one source"):
            TrafficSpec.create(N_NODES, {})
        with pytest.raises(WorkloadError, match="two network nodes"):
            TrafficSpec.create(1, {0: WORKLOAD_TEMPLATES["uniform"]})


UNIFORM = WORKLOAD_TEMPLATES["uniform"]
NARROW = WorkloadSpec.create("uniform", n_elements=8)
UNSEEDED = WorkloadSpec.create("uniform", n_elements=N_NODES)


class TestSpecValidationMessages:
    """Every error a traffic spec's construction raises, word for word.

    The constructor keeps pairs that are already sorted ``(int, spec)``
    tuples as they are and checks each spec's kind and universe once per
    distinct ``(kind, params)``, so these pin that it still names the same
    source as a sort and a check of every pair would.
    """

    @pytest.mark.parametrize(
        "arguments, message",
        [
            (dict(n_nodes=1, sources=((0, UNIFORM),)),
             "a traffic spec needs at least two network nodes"),
            (dict(n_nodes=N_NODES, sources=((0, UNIFORM),), interleaving="shuffle"),
             "unknown interleaving 'shuffle'; expected one of round_robin, "
             "uniform_pairs, weighted"),
            (dict(n_nodes=N_NODES, sources=((0, UNIFORM, 1),)),
             f"sources must be (source, WorkloadSpec) pairs, got ((0, {UNIFORM!r}, 1),)"),
            (dict(n_nodes=N_NODES, sources=(("a", UNIFORM),)),
             f"sources must be (source, WorkloadSpec) pairs, got (('a', {UNIFORM!r}),)"),
            (dict(n_nodes=N_NODES, sources=()),
             "a traffic spec needs at least one source"),
            (dict(n_nodes=N_NODES, sources=((3, UNIFORM), (N_NODES, UNIFORM), (-1, UNIFORM))),
             "source -1 outside [0, 16)"),
            (dict(n_nodes=N_NODES, sources=((5, UNIFORM), (2, UNIFORM), (5, NARROW))),
             "duplicate source 5 in traffic spec"),
            (dict(n_nodes=N_NODES, sources=((1, UNIFORM), (1, UNIFORM))),
             "duplicate source 1 in traffic spec"),
            (dict(n_nodes=N_NODES, sources=((4, UNIFORM), (2, "uniform"))),
             "source 2: workload must be a WorkloadSpec, got 'uniform'"),
            (dict(n_nodes=N_NODES, sources=((9, NARROW), (2, UNIFORM), (6, NARROW))),
             "traffic source 6: workload universe 8 does not match the 16-node tree"),
            (dict(n_nodes=N_NODES, sources=((0, UNIFORM), (1, UNIFORM)),
                  interleaving="weighted", weights=((1, 0.0),)),
             "traffic spec: weight of source 1 must be positive and finite, got 0.0"),
            (dict(n_nodes=N_NODES, sources=((0, UNIFORM),), interleaving="weighted",
                  weights=((7, 1.0),)),
             "traffic spec: weights for non-sources [7]; sources are [0]"),
            (dict(n_nodes=N_NODES, sources=((0, UNIFORM),), weights=((0, 2.0),)),
             "weights are only meaningful for the 'weighted' interleaving, "
             "not 'round_robin'"),
            (dict(n_nodes=N_NODES, sources=((0, UNSEEDED), (1, UNIFORM), (2, UNSEEDED)),
                  seed=7),
             "a seeded traffic spec needs seeded source workloads; sources [0, 2] "
             "have no seed (use with_seed to stamp every source)"),
        ],
    )
    def test_message(self, arguments, message):
        with pytest.raises(WorkloadError) as raised:
            TrafficSpec(**arguments)
        assert str(raised.value) == message

    def test_unknown_kind_message(self):
        bogus = WorkloadSpec(kind="zipff", params=(), seed=None)
        with pytest.raises(WorkloadError) as raised:
            TrafficSpec(n_nodes=N_NODES, sources=((3, UNIFORM), (1, bogus), (2, bogus)))
        assert str(raised.value) == (
            f"unknown workload kind 'zipff'; registered kinds: {registered_kinds()}"
        )

    def test_unsorted_and_non_int_sources_are_sorted_into_int_pairs(self):
        spec = TrafficSpec(
            n_nodes=N_NODES, sources=[(True, UNIFORM), (9, UNIFORM), (4.0, UNIFORM)]
        )
        assert spec.sources == ((1, UNIFORM), (4, UNIFORM), (9, UNIFORM))
        assert [type(source) for source, _spec in spec.sources] == [int] * 3

    def test_sorted_int_pairs_are_kept_as_they_are(self):
        pairs = ((0, UNIFORM), (3, WORKLOAD_TEMPLATES["zipf"]), (7, UNIFORM))
        assert TrafficSpec(n_nodes=N_NODES, sources=pairs).sources is pairs

    def test_with_seed_checks_each_distinct_spec_once(self, monkeypatch):
        from repro.network import traffic as traffic_module

        template = TrafficSpec.create(
            N_NODES,
            {source: WORKLOAD_TEMPLATES["zipf" if source % 3 else "uniform"]
             for source in range(12)},
        )
        checked = []
        check_kind = traffic_module.check_kind
        monkeypatch.setattr(
            traffic_module, "check_kind", lambda kind: checked.append(kind) or check_kind(kind)
        )
        seeded = template.with_seed(5)
        assert sorted(checked) == ["uniform", "zipf"]
        rebuilt = TrafficSpec.create(N_NODES, dict(seeded.sources), seed=5)
        assert seeded == rebuilt and hash(seeded) == hash(rebuilt)


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

    @pytest.mark.parametrize("policy", INTERLEAVINGS)
    def test_with_seed_equals_the_constructor_path(self, policy):
        # with_seed restamps each source's spec without its constructor: the
        # result must equal, serialise and key like specs built field by field
        template = spec_for(policy, kinds=tuple(WORKLOAD_TEMPLATES))
        seeded = template.with_seed(41)
        built = TrafficSpec(
            n_nodes=template.n_nodes,
            sources=tuple(
                (
                    source,
                    WorkloadSpec(
                        kind=spec.kind,
                        params=spec.params,
                        seed=41 + position * SOURCE_SEED_STRIDE,
                    ),
                )
                for position, (source, spec) in enumerate(template.sources, start=1)
            ),
            interleaving=template.interleaving,
            weights=template.weights,
            seed=41,
        )
        assert seeded == built and hash(seeded) == hash(built)
        for (_source, restamped), (_twin, constructed) in zip(seeded.sources, built.sources):
            assert type(restamped) is WorkloadSpec
            assert vars(restamped) == vars(constructed)
            assert restamped == constructed and hash(restamped) == hash(constructed)
        assert seeded.to_dict() == built.to_dict()
        assert json.dumps(seeded.to_dict()) == json.dumps(built.to_dict())

        def key(traffic: TrafficSpec) -> str:
            return payload_key(
                TrialPayload(
                    algorithm=AlgorithmSpec.coerce("rotor-push"),
                    source=TrafficSource(traffic=traffic, requests_per_source=10),
                    n_nodes=N_NODES,
                    placement_seed=10_041,
                    algorithm_seed=None,
                    keep_records=False,
                    trial=0,
                )
            )

        assert key(seeded) == key(built)
        assert key(seeded) != key(template.with_seed(42))

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
