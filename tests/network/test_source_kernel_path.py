"""Network-plan sources served in one kernel call each, against the tree path.

:func:`repro.network.multi_source.serve_source_by_source` serves a source
of a kernel algorithm with one ``CascadeKernel.serve_seeded`` call and no
:class:`SingleSourceTreeNetwork`.  The tree path (``source_tree`` plus
``serve_batch``) is the reference, and the one taken with the kernel
unavailable (``cascade_kernel.load`` patched to return ``None``), so every
column must be byte-identical between the two, and every error the same.
"""

from __future__ import annotations

import json

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

    def iter_source_streams(self, requests_per_source, chunk_size):
        return ((source, iter(chunks)) for source, chunks in self._streams)


class TestIdentity:
    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS, ids=str)
    @pytest.mark.parametrize("n_nodes", [17, 100, 1_023])
    def test_columns_equal_the_tree_path(self, kernel, algorithm, n_nodes):
        sources = sorted({0, 1, n_nodes // 2, n_nodes - 1})
        requests = 120 if n_nodes < 1_023 else 60
        for seed in (0, 7, 2**40 + 5):
            traffic = locality_traffic(n_nodes, sources, seed)
            for chunk_size in (1, 7, 97, 4_096):
                arguments = (traffic, requests, algorithm, seed, chunk_size)
                kernel_columns = serve_source_by_source(*arguments)
                tree_columns = tree_path(serve_source_by_source, *arguments)
                assert json.dumps(kernel_columns) == json.dumps(tree_columns)

    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS, ids=str)
    def test_columns_equal_a_network_fed_the_trace(self, kernel, algorithm):
        n_nodes, sources = 100, (2, 40, 41, 99)
        traffic = locality_traffic(n_nodes, sources)
        network = MultiSourceNetwork(
            n_nodes, sources=sources, algorithm=algorithm, base_seed=13
        )
        network.serve_trace_stream(traffic.iter_trace(150, 64))
        columns = serve_source_by_source(traffic, 150, algorithm, 13, 64)
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
        good, rejected = [1, 2, 3, 200], [4, 5, bad, 6]
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
        table = repro.run(self.plan(algorithm))
        assert built == []
        assert table.rows[-1]["n_requests"] == 32 * 40

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
