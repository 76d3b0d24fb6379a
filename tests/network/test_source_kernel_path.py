"""Network-plan sources served in one kernel call each, against the tree path.

:func:`repro.network.multi_source.serve_source_by_source` serves every
source of a kernel algorithm with one ``SeededTrees.serve`` call on the
trial's one set of kernel buffers, its destinations mapped to elements in
C, and no :class:`SingleSourceTreeNetwork` or destination table.  The tree
path (``source_tree`` plus ``serve_batch``) is the reference, and the one
taken with the kernel unavailable (``cascade_kernel.load`` patched to
return ``None``), so every column must be byte-identical between the two,
and every error the same, also in a trial after one that failed.
"""

from __future__ import annotations

import json
from array import array

import pytest

import repro
from repro.algorithms import cascade_kernel
from repro.algorithms.registry import AlgorithmSpec
from repro.exceptions import AlgorithmError, WorkloadError
from repro.network import single_source
from repro.network.multi_source import MultiSourceNetwork, serve_source_by_source
from repro.network.traffic import TrafficSpec
from repro.plans import NetworkPlan, RunConfig
from repro.workloads.spec import WorkloadSpec

#: The five kernel algorithms, and a spec whose parameter only the checked
#: reference path reads.
KERNEL_ALGORITHMS = (
    "rotor-push",
    "random-push",
    "move-half",
    "max-push",
    "move-to-front",
    AlgorithmSpec.create("rotor-push", exact_swaps=True),
)


@pytest.fixture(scope="module")
def kernel():
    loaded = cascade_kernel.load()
    if loaded is None or not loaded.rng_port_matches:
        pytest.skip("the one-call path needs the cascade kernel and its RNG check")
    return loaded


def locality_traffic(n_nodes: int, sources, seed: int = 3) -> TrafficSpec:
    workload = WorkloadSpec.create(
        "combined-locality",
        n_elements=n_nodes,
        zipf_exponent=1.4,
        repeat_probability=0.4,
    )
    traffic = TrafficSpec.create(n_nodes, {source: workload for source in sources})
    return traffic.with_seed(seed)


#: The source workloads of the identity test: one kind for every source,
#: the four kinds in turn across the sources ("mixed"), or a Zipf stream
#: without the identifier permutation, whose rank 0 (element 0) is source 0
#: itself ("self-naming"), so the traffic remaps it.
IDENTITY_WORKLOADS = (
    "combined-locality", "uniform", "zipf", "temporal", "mixed", "self-naming",
)


def kind_traffic(kind: str, n_nodes: int, sources, seed: int) -> TrafficSpec:
    """:data:`IDENTITY_WORKLOADS` traffic over ``sources``, seeded by ``seed``."""
    templates = [
        WorkloadSpec.create(
            "combined-locality", n_elements=n_nodes, zipf_exponent=1.4,
            repeat_probability=0.4,
        ),
        WorkloadSpec.create("uniform", n_elements=n_nodes),
        WorkloadSpec.create("zipf", n_elements=n_nodes, exponent=1.2),
        WorkloadSpec.create("temporal", n_elements=n_nodes, repeat_probability=0.6),
    ]
    if kind == "mixed":
        workloads = {source: templates[i % 4] for i, source in enumerate(sources)}
    elif kind == "self-naming":
        workload = WorkloadSpec.create(
            "zipf", n_elements=n_nodes, exponent=3.0, permute_identifiers=False
        )
        workloads = {source: workload for source in sources}
    else:
        workload = templates[IDENTITY_WORKLOADS.index(kind)]
        workloads = {source: workload for source in sources}
    return TrafficSpec.create(n_nodes, workloads).with_seed(seed)


def tree_path(function, *args, **kwargs):
    """Call ``function`` with the kernel hidden, so every source builds a tree."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cascade_kernel, "load", lambda: None)
        return function(*args, **kwargs)


class _StubTraffic:
    """The two attributes ``serve_source_by_source`` reads, with set chunks."""

    def __init__(self, n_nodes: int, streams):
        self.n_nodes = n_nodes
        self._streams = streams

    def iter_source_streams(self, requests_per_source):
        return ((source, iter(chunks)) for source, chunks in self._streams)


class TestIdentity:
    @pytest.mark.parametrize("workloads", IDENTITY_WORKLOADS)
    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS, ids=str)
    @pytest.mark.parametrize("n_nodes", [17, 100, 1_023])
    def test_columns_equal_the_tree_path(self, kernel, algorithm, n_nodes, workloads):
        sources = sorted({0, 1, n_nodes // 2, n_nodes - 1})
        requests = 120 if n_nodes < 1_023 else 60
        named = []
        for seed in (0, 7, 2**40 + 5):
            traffic = kind_traffic(workloads, n_nodes, sources, seed)
            streams = [
                (source, [element for chunk in chunks for element in chunk])
                for source, chunks in traffic.iter_source_streams(requests)
            ]
            for (source, stream), (_source, spec) in zip(streams, traffic.sources):
                drawn = [e for chunk in spec.build().iter_requests(requests) for e in chunk]
                assert source not in stream and len(stream) == len(drawn) == requests
                if source in drawn:  # the traffic remapped the source's own id
                    named.append(source)
                    assert stream == [
                        (source + 1) % n_nodes if e == source else e for e in drawn
                    ]
                else:
                    assert stream == drawn
            recut = [
                _StubTraffic(n_nodes, [
                    (source, [stream[i:i + size] for i in range(0, len(stream), size)])
                    for source, stream in streams
                ])
                for size in (1, 7, 97, 4_096)
            ]
            for cut in (traffic, *recut):
                arguments = (cut, requests, algorithm, seed)
                kernel_columns = serve_source_by_source(*arguments)
                tree_columns = tree_path(serve_source_by_source, *arguments)
                assert json.dumps(kernel_columns) == json.dumps(tree_columns)
        if workloads == "self-naming":
            assert 0 in named

    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS, ids=str)
    def test_columns_equal_a_network_fed_the_trace(self, kernel, algorithm):
        n_nodes, sources = 100, (2, 40, 41, 99)
        traffic = locality_traffic(n_nodes, sources)
        network = MultiSourceNetwork(
            n_nodes, sources=sources, algorithm=algorithm, base_seed=13
        )
        network.serve_trace_stream(traffic.iter_trace(150, 64))
        columns = serve_source_by_source(traffic, 150, algorithm, 13)
        assert columns == network.per_source_columns()


class TestErrors:
    @pytest.mark.parametrize(
        "bad, message",
        [
            (255, "destination 255 is not reachable from source 9"),
            (-1, "destination -1 is not reachable from source 9"),
            (9, "destination 9 is not reachable from source 9"),
        ],
    )
    def test_a_bad_chunk_is_rejected_whole(self, kernel, monkeypatch, bad, message):
        self.check_rejected_whole(kernel, monkeypatch, [4, 5, bad, 6], message)

    @pytest.mark.parametrize(
        "bad, chunk_type",
        [
            *((bad, "array") for bad in (255, -1, 9)),
            (2**70, "list"),
            ("x", "list"),
            (3.0, "list"),
        ],
        ids=repr,
    )
    def test_any_unreachable_destination_in_either_chunk_type(
        self, kernel, monkeypatch, bad, chunk_type
    ):
        rejected = [4, 5, bad, 6]
        if chunk_type == "array":
            rejected = array("q", rejected)
        message = f"destination {bad} is not reachable from source 9"
        self.check_rejected_whole(kernel, monkeypatch, rejected, message, chunk_type)

    @staticmethod
    def check_rejected_whole(kernel, monkeypatch, rejected, message, chunk_type="list"):
        """Both paths raise ``message`` for the chunk ``rejected`` between two
        good ones, and the kernel serves nothing of it."""
        good = [1, 2, 3, 200]
        if chunk_type == "array":
            good = array("q", good)
        traffic = _StubTraffic(255, [(9, [good, rejected, good])])
        with pytest.raises(AlgorithmError) as tree_error:
            tree_path(serve_source_by_source, traffic, 12, "rotor-push", 0)
        served = []
        function = kernel._functions["rotor_push"]

        def spy(state, requests, count):
            served.append(count)
            return function(state, requests, count)

        monkeypatch.setitem(kernel._functions, "rotor_push", spy)
        with pytest.raises(AlgorithmError) as kernel_error:
            serve_source_by_source(traffic, 12, "rotor-push", 0)
        assert str(kernel_error.value) == str(tree_error.value) == message
        assert served == [len(good)]  # nothing of the rejected chunk

    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS, ids=str)
    def test_trials_after_a_failed_one_equal_the_tree_path(self, kernel, algorithm):
        streams = [
            (source, [[(source + step) % 63 or 1 for step in range(1, 90, 7)]])
            for source in (3, 17, 40)
        ]
        broken = _StubTraffic(63, [*streams[:2], (50, [[1, 2], [50]]), *streams[2:]])
        with pytest.raises(AlgorithmError, match="destination 50 is not reachable"):
            serve_source_by_source(broken, 13, algorithm, 5)
        for traffic in (_StubTraffic(63, streams), locality_traffic(63, (0, 9, 62))):
            expected = tree_path(serve_source_by_source, traffic, 13, algorithm, 5)
            assert serve_source_by_source(traffic, 13, algorithm, 5) == expected

    def test_a_dry_source_keeps_the_trace_wording(self, kernel):
        short = WorkloadSpec.create("fixed-sequence", n_elements=63, sequence=(3, 4, 5))
        uniform = WorkloadSpec.create("uniform", n_elements=63)
        traffic = TrafficSpec.create(63, {1: uniform, 6: short, 9: uniform})
        message = "^workload for source 6 ran dry after 3 requests$"
        for serve in (serve_source_by_source, lambda *a: tree_path(serve_source_by_source, *a)):
            with pytest.raises(WorkloadError, match=message):
                serve(traffic, 5, "max-push", 0)

    def test_an_unknown_parameter_fails_as_on_the_tree_path(self, kernel):
        traffic = locality_traffic(63, (1, 2))
        spec = AlgorithmSpec.create("rotor-push", bogus=1)
        with pytest.raises(TypeError, match="bogus"):
            serve_source_by_source(traffic, 10, spec, 0)


class TestWhiteBox:
    @staticmethod
    def plan(algorithm: str) -> NetworkPlan:
        traffic = TrafficSpec.create(
            255,
            {
                source: WorkloadSpec.create("uniform", n_elements=255)
                for source in range(0, 255, 8)
            },
        )
        return NetworkPlan(
            name="white-box",
            traffic=traffic,
            algorithm=algorithm,
            config=RunConfig(n_requests=40, n_trials=1),
        )

    @staticmethod
    def count_trees(monkeypatch):
        built = []
        init = single_source.SingleSourceTreeNetwork.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("source", args[0] if args else None))
            init(self, *args, **kwargs)

        monkeypatch.setattr(single_source.SingleSourceTreeNetwork, "__init__", counted)
        return built

    @pytest.mark.parametrize(
        "algorithm", ["rotor-push", "random-push", "max-push", "static-oblivious"]
    )
    def test_a_kernel_trial_builds_no_tree(self, kernel, monkeypatch, algorithm):
        built = self.count_trees(monkeypatch)
        owners = []
        init = cascade_kernel.SeededTrees.__init__

        def counted(self, *args):
            owners.append(args[1:])
            init(self, *args)

        monkeypatch.setattr(cascade_kernel.SeededTrees, "__init__", counted)
        monkeypatch.setattr(
            single_source, "destination_table", None
        )  # a kernel source builds no destination table
        table = repro.run(self.plan(algorithm))
        assert built == []
        assert table.rows[-1]["n_requests"] == 32 * 40
        # one set of buffers serves all 32 sources of the trial
        function = algorithm.replace("-", "_")
        assert owners == [(function, 255)]

    def test_a_static_opt_plan_takes_the_tree_path(self, kernel, monkeypatch):
        # a source streams its chunks, so it cannot prepare Static-Opt: the
        # tree path builds the first source's tree and rejects the serve
        built = self.count_trees(monkeypatch)
        with pytest.raises(AlgorithmError, match="requires prepare"):
            serve_source_by_source(self.plan("static-opt").traffic, 40, "static-opt", 0)
        assert built == [0]

    def test_trees_below_the_seeded_floor_take_the_tree_path(self, kernel, monkeypatch):
        built = self.count_trees(monkeypatch)
        traffic = locality_traffic(8, (0, 3))  # 7 destinations: a 7-node tree
        serve_source_by_source(traffic, 20, "rotor-push", 0)
        assert built == [0, 3]

    def test_a_failed_rng_check_takes_the_tree_path(self, kernel, monkeypatch):
        built = self.count_trees(monkeypatch)
        traffic = locality_traffic(63, (0, 3))
        expected = tree_path(serve_source_by_source, traffic, 50, "rotor-push", 0)
        built.clear()
        monkeypatch.setattr(kernel, "rng_port_matches", False)
        assert serve_source_by_source(traffic, 50, "rotor-push", 0) == expected
        assert built == [0, 3]
