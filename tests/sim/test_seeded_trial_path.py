"""Single-source trials in one seeded kernel call, against the tree path.

A :class:`~repro.sim.runner.SpecSource` trial whose algorithm
:func:`repro.algorithms.registry.seeded_serving` admits is served by one
``CascadeKernel.serve_seeded`` call and builds no tree, with or without
per-request records (Static-Opt with records excepted).  The tree
path (:func:`repro.sim.engine.simulate_stream` building the algorithm) is
the reference, and the one taken with the kernel hidden (``cascade_kernel.load`` patched to return
``None``), so the two must return equal :class:`RunResult` objects that
store as identical bytes.  The kernel pieces the path rests on are pinned
here too: an owner's whole state after serving against the tree the same
seeds build (``TestOwnerState``; the chunk functions serve no tree
otherwise), one ``SeededTrees`` serving tree after tree against fresh
buffers for every chunk function, ``static_serve`` and Static-Opt's count
total against the Python level sum, Static-Opt's frequency placement
counted on the kernel against its ``Counter`` reference, and the kernel's
``array('q')`` repeat rule against the Python rule.  A chunk is a list or an ``array('q')``; both run in every
environment, and the kernel's own draws reach ``serve_seeded`` uncopied.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter

import pytest

from repro.algorithms import cascade_kernel
from repro.algorithms.registry import (
    ALGORITHMS,
    PAPER_ALGORITHMS,
    AlgorithmSpec,
    get_algorithm_class,
    make_algorithm,
    seeded_serving,
)
from repro.algorithms import static_opt
from repro.algorithms.static_opt import frequency_placement
from repro.core import draws
from repro.core.cost import RequestRecordColumns
from repro.core.state import TreeNetwork, random_placement
from repro.exceptions import AlgorithmError, MappingError
from repro.resilience.store import ResultStore
from repro.sim.engine import simulate
from repro.sim import runner
from repro.sim.runner import SpecSource, TrialPayload
from repro.workloads.spec import DEFAULT_CHUNK_SIZE, WorkloadSpec
from repro.workloads.temporal import _repeat_postprocess_chunks
from repro.workloads.uniform import UniformWorkload

#: The workload kinds of the paper's single-source figures.
KINDS = ("uniform", "temporal", "zipf", "combined-locality")
#: Requests per trial: enough for every chunk size to split the stream but
#: the largest, which serves it in one chunk as the golden plans do.
N_REQUESTS = 2_500
CHUNK_TYPES = ("list", "array")
#: Every algorithm with a kernel chunk function.
KERNEL_ALGORITHMS = [name for name in ALGORITHMS if get_algorithm_class(name).kernel]


@pytest.fixture(scope="module")
def kernel():
    loaded = cascade_kernel.load()
    if loaded is None or not loaded.rng_port_matches:
        pytest.skip("the seeded trial path needs the cascade kernel and its RNG check")
    return loaded


def workload(kind: str, n_nodes: int) -> WorkloadSpec:
    params = {"n_elements": n_nodes}
    if kind == "temporal":
        params["repeat_probability"] = 0.6
    elif kind == "zipf":
        params["exponent"] = 1.4
    elif kind == "combined-locality":
        params.update(zipf_exponent=1.3, repeat_probability=0.5)
    return WorkloadSpec.create(kind, seed=11, **params)


def payload(algorithm, spec, n_nodes, **overrides) -> TrialPayload:
    fields = dict(
        algorithm=algorithm,
        source=SpecSource(spec, N_REQUESTS, shared=True),
        n_nodes=n_nodes,
        placement_seed=10_007,
        algorithm_seed=20_007,
        keep_records=False,
        trial=3,
        metadata={"point": "p"},
    )
    fields.update(overrides)
    return TrialPayload(**fields)


def as_type(chunk, chunk_type: str):
    return array("q", chunk) if chunk_type == "array" else list(chunk)


def run(
    trial: TrialPayload,
    chunk_type: str = "array",
    tree: bool = False,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
):
    """Execute ``trial`` with ``chunk_type`` chunks of ``chunk_size`` requests;
    ``tree`` hides the kernel."""
    chunks_of = runner._chunks_of

    def recut(source):
        stream = [element for chunk in chunks_of(source) for element in chunk]
        return [
            as_type(stream[start:start + chunk_size], chunk_type)
            for start in range(0, len(stream), chunk_size)
        ]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "_chunks_of", recut)
        if tree:
            patch.setattr(cascade_kernel, "load", lambda: None)
        runner._shared_chunks_cache.clear()
        try:
            return runner._execute_trial_body(trial)
        finally:
            runner._shared_chunks_cache.clear()


@pytest.fixture
def seeded_calls(kernel, monkeypatch):
    """The chunk functions ``serve_seeded`` was called with."""
    calls = []
    serve_seeded = kernel.serve_seeded

    def counting(function, *args):
        calls.append(function)
        return serve_seeded(function, *args)

    monkeypatch.setattr(kernel, "serve_seeded", counting)
    return calls


@pytest.fixture
def trees_built(monkeypatch):
    """The sizes of the ``TreeNetwork``s built, by any constructor."""
    built = []
    attach = TreeNetwork._attach

    def counting(self, *args):
        built.append(self.tree.n_nodes)
        return attach(self, *args)

    monkeypatch.setattr(TreeNetwork, "_attach", counting)
    return built


def stored_bytes(tmp_path, name: str, result) -> bytes:
    """The bytes a fresh result store writes for ``result``."""
    return ResultStore(tmp_path / name).put("k" * 64, result).read_bytes()


class TestIdentity:
    @pytest.mark.parametrize("n_nodes", [15, 255, 1_023])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_result_equals_the_tree_path(
        self, kernel, seeded_calls, tmp_path, algorithm, kind, n_nodes
    ):
        spec = workload(kind, n_nodes)
        expected_calls = 0
        for chunk_size in (1, 97, n_nodes, 20_000):
            for chunk_type in CHUNK_TYPES:
                trial = payload(algorithm, spec, n_nodes)
                reference = run(trial, chunk_type, tree=True, chunk_size=chunk_size)
                seeded = run(trial, chunk_type, chunk_size=chunk_size)
                assert seeded == reference, (chunk_size, chunk_type)
                assert type(seeded.per_request) is type(reference.per_request)
                assert list(seeded.metadata) == list(reference.metadata)
                expected_calls += n_nodes >= draws.SEEDED_KERNEL_MIN_DRAWS
        assert len(seeded_calls) == expected_calls
        assert stored_bytes(tmp_path, "seeded", seeded) == stored_bytes(
            tmp_path, "tree", reference
        )

    def test_exact_swaps_takes_the_seeded_path(self, seeded_calls):
        spec = AlgorithmSpec.create("rotor-push", exact_swaps=True)
        trial = payload(spec, workload("temporal", 255), 255)
        assert run(trial) == run(trial, tree=True)
        assert seeded_calls == ["rotor_push"]


class TestRecords:
    """Records-mode trials: the seeded path fills the record columns the
    tree path keeps, chunk by chunk."""

    @pytest.mark.parametrize("chunk_type", CHUNK_TYPES)
    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    def test_records_equal_the_tree_path(
        self, seeded_calls, tmp_path, algorithm, chunk_type
    ):
        n_nodes = 63
        spec = workload("combined-locality", n_nodes)
        lengths = (1, 7, n_nodes - 1, n_nodes + 1, N_REQUESTS)
        for chunk_size in lengths:
            trial = payload(algorithm, spec, n_nodes, keep_records=True)
            reference = run(trial, chunk_type, tree=True, chunk_size=chunk_size)
            seeded = run(trial, chunk_type, chunk_size=chunk_size)
            assert seeded == reference, chunk_size
            for column in ("elements", "levels", "swaps"):
                mine = getattr(seeded.per_request, column)
                assert mine == getattr(reference.per_request, column), column
                assert len(mine) == N_REQUESTS
                assert all(type(value) is int for value in mine)
            assert stored_bytes(tmp_path, f"seeded-{chunk_size}", seeded) == (
                stored_bytes(tmp_path, f"tree-{chunk_size}", reference)
            )
        # Static-Opt's levels are known only once the sequence is counted
        on_kernel = algorithm != "static-opt"
        assert seeded_calls == [get_algorithm_class(algorithm).kernel] * (
            len(lengths) * on_kernel
        )

    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_a_records_trial_builds_no_tree(self, kernel, trees_built, algorithm):
        trial = payload(algorithm, workload("uniform", 255), 255, keep_records=True)
        result = run(trial)
        assert len(result.per_request) == N_REQUESTS
        assert trees_built == ([255] if algorithm == "static-opt" else [])

    @pytest.mark.parametrize("algorithm", ["rotor-push", "max-push", "static-oblivious"])
    def test_deterministic_algorithms_ignore_the_algorithm_seed(
        self, seeded_calls, trees_built, algorithm
    ):
        # Figure 5b's Rotor-Push payloads carry no algorithm seed
        trial = payload(
            algorithm, workload("uniform", 255), 255,
            keep_records=True, algorithm_seed=None,
        )
        seeded = run(trial)
        assert trees_built == []
        assert seeded == run(trial, tree=True)
        assert seeded_calls == [get_algorithm_class(algorithm).kernel]

    @pytest.mark.parametrize("chunk_type", CHUNK_TYPES)
    @pytest.mark.parametrize("algorithm", ["rotor-push", "random-push", "max-push"])
    def test_out_of_range_element_appends_no_record(self, kernel, algorithm, chunk_type):
        function = seeded_serving(AlgorithmSpec(algorithm), 255, 1, 2)[1]
        records = RequestRecordColumns()
        chunks = [as_type([1, 2], chunk_type), as_type([3, 4, 255, 7], chunk_type)]
        with pytest.raises(MappingError, match="element 255 outside universe of size 255"):
            kernel.serve_seeded(function, 255, 1, 2, chunks, records)
        assert records.elements == [1, 2] and len(records.levels) == 2
        assert len(records.swaps) == 2

    def test_static_opt_keeps_no_seeded_records(self, kernel):
        with pytest.raises(ValueError, match="Static-Opt"):
            kernel.serve_seeded("static_opt", 255, 1, 2, [[1]], RequestRecordColumns())

    @pytest.mark.parametrize("algorithm", ["random-push", "move-half", "static-opt"])
    def test_simulate_takes_the_stream_dispatch(
        self, seeded_calls, trees_built, monkeypatch, algorithm
    ):
        sequence = [random.Random(3).randrange(255) for _ in range(600)]
        arguments = dict(n_nodes=255, placement_seed=11, seed=13, keep_records=True)
        result = simulate(algorithm, sequence, **arguments)
        with monkeypatch.context() as patch:
            patch.setattr(cascade_kernel, "load", lambda: None)
            assert result == simulate(algorithm, sequence, **arguments)
        assert result.per_request.elements == sequence
        on_kernel = algorithm != "static-opt"
        assert seeded_calls == [get_algorithm_class(algorithm).kernel] * on_kernel
        # the hidden kernel builds the tree path's one tree
        assert trees_built == [255] * (2 - on_kernel)


class TestFallback:
    """Each case takes the tree path, and returns what it returned before."""

    @pytest.mark.parametrize(
        "algorithm, overrides",
        [
            ("move-half", {"placement_seed": None}),
            ("static-opt", {"placement_seed": None}),
            ("static-opt", {"keep_records": True}),
            ("random-push", {"algorithm_seed": None}),
            ("random-push", {"algorithm_seed": True}),
        ],
        ids=[
            "move-half-no-placement-seed",
            "static-opt-no-placement-seed",
            "static-opt-keep_records",
            "random-push-no-algorithm-seed",
            "random-push-bool-seed",
        ],
    )
    def test_payload_fields(self, seeded_calls, algorithm, overrides):
        trial = payload(algorithm, workload("zipf", 255), 255, **overrides)
        result = run(trial)
        assert seeded_calls == []
        if trial.placement_seed is not None and trial.algorithm_seed is not None:
            assert result == run(trial, tree=True)

    def test_failed_rng_check(self, kernel, seeded_calls, monkeypatch):
        trial = payload("random-push", workload("uniform", 255), 255)
        reference = run(trial, tree=True)
        monkeypatch.setattr(kernel, "rng_port_matches", False)
        assert run(trial) == reference
        assert seeded_calls == []

    def test_parameter_the_kernel_does_not_model(self, seeded_calls):
        spec = AlgorithmSpec.create("random-push", seed=5)
        assert seeded_serving(spec, 255, 1, 2) is None
        trial = payload(spec, workload("uniform", 255), 255)
        assert run(trial) == run(trial, tree=True)
        assert seeded_calls == []

    def test_rejected_parameter_raises_on_the_tree_path(self, seeded_calls):
        trial = payload(
            AlgorithmSpec.create("max-push", exact_swaps=True),
            workload("uniform", 255), 255,
        )
        with pytest.raises(TypeError):
            run(trial)
        assert seeded_calls == []

    def test_incomplete_tree_size(self, kernel):
        assert seeded_serving(AlgorithmSpec("rotor-push"), 100, 1, 2) is None
        assert seeded_serving(AlgorithmSpec("rotor-push"), 127, 1, 2) == (
            kernel, "rotor_push"
        )


class TestChunks:
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    @pytest.mark.parametrize("chunk_type", CHUNK_TYPES)
    @pytest.mark.parametrize("bad", [-1, 255, 2**70])
    def test_out_of_range_element_serves_nothing(self, kernel, algorithm, chunk_type, bad):
        function = seeded_serving(AlgorithmSpec(algorithm), 255, 1, 2)[1]
        chunk = [3, 4, bad, 7]
        if chunk_type == "array":
            if bad == 2**70:
                pytest.skip("an array('q') of 64-bit elements")
            chunk = array("q", chunk)
        served = []

        def chunks():
            yield [1, 2]
            served.append(True)
            yield chunk
            served.append(True)

        with pytest.raises(MappingError, match=f"element {bad} outside universe of size 255"):
            kernel.serve_seeded(function, 255, 1, 2, chunks())
        assert served == [True]

    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_chunk_types_and_lengths_agree(self, kernel, algorithm):
        function = seeded_serving(AlgorithmSpec(algorithm), 63, 1, 2)[1]
        stream = [random.Random(4).randrange(63) for _ in range(500)]
        expected = kernel.serve_seeded(function, 63, 5, 6, [stream])
        pieces = [stream[:1], [], stream[1:98], stream[98:]]
        arrays = [array("q", piece) for piece in pieces]
        assert kernel.serve_seeded(function, 63, 5, 6, pieces) == expected
        assert kernel.serve_seeded(function, 63, 5, 6, arrays) == expected
        mixed = [arrays[0], pieces[1], arrays[2], pieces[3]]
        assert kernel.serve_seeded(function, 63, 5, 6, mixed) == expected
        assert expected[0] == len(stream)

    @pytest.mark.parametrize("kind", ["uniform", "temporal", "zipf", "combined-locality"])
    def test_kernel_draws_reach_serve_seeded_uncopied(self, kernel, monkeypatch, kind):
        """The kernel's ``array('q')`` draws are served where they lie:
        ``_requests`` copies none of them."""
        requests = cascade_kernel._requests
        uncopied = []

        def spy(chunk):
            address, count, owner = requests(chunk)
            uncopied.append(owner is chunk)
            return address, count, owner

        monkeypatch.setattr(cascade_kernel, "_requests", spy)
        trial = payload("rotor-push", workload(kind, 1_023), 1_023)
        runner._execute_trial_body(trial)
        assert uncopied == [True]


def level_sum(node_of, requests) -> int:
    return sum((node_of[element] + 1).bit_length() for element in requests)


class TestStaticServe:
    @pytest.mark.parametrize("n_nodes", [31, 1_023])
    def test_static_oblivious_matches_the_level_sum(self, kernel, n_nodes):
        requests = [random.Random(n_nodes).randrange(n_nodes) for _ in range(3_000)]
        node_of = [0] * n_nodes
        for node, element in enumerate(random_placement(n_nodes, random.Random(9))):
            node_of[element] = node
        assert kernel.serve_seeded("static_oblivious", n_nodes, 9, 0, [requests]) == (
            len(requests), level_sum(node_of, requests), 0
        )

    @pytest.mark.parametrize(
        "requests",
        [
            [5] * 4 + [1] * 4 + [9] * 4 + [2] * 4 + [0, 3, 3, 0],  # count ties
            [7] * 9,
            [],
            list(range(31)) * 2,
        ],
        ids=["ties", "one-element", "empty", "all-equal"],
    )
    def test_static_opt_matches_its_frequency_placement(self, kernel, requests):
        placement = frequency_placement(31, requests)
        node_of = [0] * 31
        for node, element in enumerate(placement):
            node_of[element] = node
        expected = (len(requests), level_sum(node_of, requests), 0)
        assert kernel.serve_seeded("static_opt", 31, 1, 2, [requests]) == expected
        # any order of equal counts costs the same
        tied = sorted(range(31), key=lambda e: (-requests.count(e), -e))
        node_of = [0] * 31
        for node, element in enumerate(tied):
            node_of[element] = node
        assert level_sum(node_of, requests) == expected[1]


#: Every chunk function a seeded tree serves.
CHUNK_FUNCTIONS = (
    "rotor_push", "random_push", "move_half", "max_push", "move_to_front",
    "static_oblivious", "static_opt",
)


class TestReusedBuffers:
    """One ``SeededTrees`` serving tree after tree gives what fresh buffers give.

    A short stream between long ones leaves most of a tree's rotor
    pointers, never-accessed bits and Mersenne Twister words as the tree
    before it left them, so a tree that kept any of them would differ.
    """

    @staticmethod
    def streams(n_nodes: int):
        rng = random.Random(n_nodes)
        lengths = (n_nodes // 4, 3 * n_nodes, n_nodes // 2, 2 * n_nodes)
        return [[rng.randrange(n_nodes) for _ in range(length)] for length in lengths]

    @pytest.mark.parametrize("function", CHUNK_FUNCTIONS)
    @pytest.mark.parametrize("n_nodes", [15, 255, 1_023])
    def test_each_tree_equals_a_fresh_one(self, kernel, function, n_nodes):
        trees = cascade_kernel.SeededTrees(kernel, function, n_nodes)
        for seed, stream in enumerate(self.streams(n_nodes)):
            chunks = [stream[:7], array("q", stream[7:])]
            fresh = kernel.serve_seeded(function, n_nodes, seed, seed + 100, chunks)
            assert trees.serve(seed, seed + 100, chunks) == fresh

    @pytest.mark.parametrize("function", CHUNK_FUNCTIONS[:-1])
    def test_records_equal_fresh_ones(self, kernel, function):
        trees = cascade_kernel.SeededTrees(kernel, function, 255)
        for seed, stream in enumerate(self.streams(255)):
            reused, fresh = RequestRecordColumns(), RequestRecordColumns()
            chunks = [stream[:100], stream[100:]]
            totals = trees.serve(seed, 7, chunks, reused)
            assert totals == kernel.serve_seeded(function, 255, seed, 7, chunks, fresh)
            assert (reused.elements, reused.levels, reused.swaps) == (
                fresh.elements, fresh.levels, fresh.swaps
            )

    @pytest.mark.parametrize("function", CHUNK_FUNCTIONS)
    def test_a_tree_after_one_that_raised_equals_a_fresh_one(self, kernel, function):
        trees = cascade_kernel.SeededTrees(kernel, function, 255)
        short, long, *_ = self.streams(255)
        with pytest.raises(MappingError):
            trees.serve(1, 2, [long, [3, 255]])
        chunks = [short, long]
        assert trees.serve(3, 4, chunks) == kernel.serve_seeded(function, 255, 3, 4, chunks)

    @pytest.mark.parametrize("function", CHUNK_FUNCTIONS[:-1])
    def test_chunks_served_call_by_call_equal_one_serve(self, kernel, function):
        """``serve`` is ``draw`` then ``serve_chunks``: serving one chunk per
        call on the drawn tree, as a live source does, reaches the totals of
        one call over every chunk, and a redraw starts the tree afresh."""
        trees = cascade_kernel.SeededTrees(kernel, function, 255)
        for seed, stream in enumerate(self.streams(255)):
            chunks = [stream[start:start + 13] for start in range(0, len(stream), 13)]
            trees.draw(seed, seed + 100)
            assert (trees.access_total, trees.adjustment_total) == (0, 0)
            served = 0
            for chunk in chunks:
                count, access_total, adjustment_total = trees.serve_chunks([chunk])
                assert (access_total, adjustment_total) == (
                    trees.access_total, trees.adjustment_total
                )
                served += count
            whole = kernel.serve_seeded(function, 255, seed, seed + 100, chunks)
            assert (served, trees.access_total, trees.adjustment_total) == whole

    def test_static_opt_counts_its_whole_sequence_in_one_call(self, kernel):
        """Static-Opt's total ranks its counts in place, so a second call
        on the same draw is refused; a redraw starts the counts afresh."""
        trees = cascade_kernel.SeededTrees(kernel, "static_opt", 255)
        short, long, *_ = self.streams(255)
        trees.draw(1, 2)
        first = trees.serve_chunks([short, long])
        with pytest.raises(ValueError, match="one call per draw"):
            trees.serve_chunks([short])
        assert trees.serve(1, 2, [short, long]) == first


class TestOwnerState:
    """A seeded owner's whole state equals the tree the same seeds build.

    After ``SeededTrees.serve``, every buffer the chunk function wrote is
    compared with a tree that ``make_algorithm`` builds from the same
    ``int`` seeds and serves through ``serve_batch`` (Python lists and the
    reference ``_adjust``): the placement, the rotor pointers, the LRU links, stamps,
    levels, never-accessed bitmaps and clock, and the Mersenne Twister
    words and index against the algorithm's ``random.Random``.  Static-Opt
    has no placement in its owner: its counts, ranked, must be those of its
    prepared tree's elements in node order.

    A tree built in Python builds its LRU index with the Python pass
    (``LevelLRUIndex._build``), so an owner that has served nothing pins the
    kernel's ``lru_build`` against that pass, at 1,023 and 65,535 nodes.
    """

    N_NODES = 63

    @staticmethod
    def stream(n_nodes: int):
        rng = random.Random(5)
        requests = [rng.randrange(n_nodes) for _ in range(300)]
        requests[40:60] = [requests[39]] * 20  # a repeat run
        return requests

    @pytest.mark.parametrize("chunk_type", CHUNK_TYPES)
    @pytest.mark.parametrize("chunk_size", [1, 7, N_NODES, 301])
    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    def test_buffers_equal_the_served_tree(
        self, assert_owner_matches_tree, kernel, algorithm, chunk_size, chunk_type
    ):
        stream = self.stream(self.N_NODES)
        chunks = [
            as_type(stream[start:start + chunk_size], chunk_type)
            for start in range(0, len(stream), chunk_size)
        ]
        self.assert_owner_equals_tree(
            assert_owner_matches_tree, kernel, algorithm, self.N_NODES, 17, 29, chunks
        )

    @pytest.mark.parametrize("algorithm", ["static-oblivious", "static-opt"])
    def test_paper_scale_buffers_equal_the_served_tree(
        self, assert_owner_matches_tree, kernel, algorithm
    ):
        """At the paper's 65,535 nodes, the static trees: a uniform trace
        over the whole universe, the first 300 requests one chunk and the
        next 65,536 another.  The five self-adjusting algorithms are pinned
        the same way, chunk by chunk, in
        ``tests/algorithms/test_batch_serve_equivalence.py``.
        """
        n_nodes = 65_535
        stream = UniformWorkload(n_nodes, seed=4).generate(300 + 65_536)
        stream[100:110] = [stream[99]] * 10  # a repeat run
        chunks = [as_type(stream[:300], "array"), as_type(stream[300:], "array")]
        self.assert_owner_equals_tree(
            assert_owner_matches_tree, kernel, algorithm, n_nodes, 7, 5, chunks
        )

    @pytest.mark.parametrize("n_nodes", [1_023, 65_535])
    @pytest.mark.parametrize("algorithm", ["move-half", "max-push"])
    def test_fresh_lru_buffers_equal_the_python_pass(
        self, assert_owner_matches_tree, kernel, algorithm, n_nodes
    ):
        self.assert_owner_equals_tree(
            assert_owner_matches_tree, kernel, algorithm, n_nodes, 7, 5, []
        )

    @staticmethod
    def assert_owner_equals_tree(
        assert_owner_matches_tree, kernel, algorithm, n_nodes, placement_seed, algorithm_seed, chunks
    ):
        function = get_algorithm_class(algorithm).kernel
        trees = cascade_kernel.SeededTrees(kernel, function, n_nodes)
        totals = trees.serve(placement_seed, algorithm_seed, chunks)
        tree = make_algorithm(
            algorithm, n_nodes=n_nodes, placement_seed=placement_seed,
            seed=algorithm_seed, keep_records=False,
        )
        stream = [element for chunk in chunks for element in chunk]
        if tree.requires_preparation:
            tree.prepare(stream)
        for chunk in chunks:
            tree.serve_batch(chunk)
        ledger = tree.network.ledger
        assert totals == (
            ledger.n_requests, ledger.total_access_cost, ledger.total_adjustment_cost
        )
        if function == "static_opt":
            # static_opt_total leaves the counts sorted by rank: the prepared
            # tree holds them in that order, node by node
            occurrences = Counter(stream)
            counted = [occurrences[element] for element in tree.network._elem_at]
            assert trees._buffers["counts"].tolist() == counted == sorted(counted, reverse=True)
            return
        assert_owner_matches_tree(trees, tree)


class TestStaticOptCounts:
    """Static-Opt's frequency placement counts on the kernel when it is
    loaded; the ``Counter`` pass is the fallback and the reference."""

    @pytest.mark.parametrize(
        "requests",
        [
            [5] * 4 + [1] * 4 + [9] * 4 + [2] * 4 + [0, 3, 3, 0] * 5,  # count ties
            [7] * 40,
            list(range(31)) * 2,
            list(range(30, -1, -1)) + [30, 0, 15] * 3,
        ],
        ids=["ties", "one-element", "all-equal", "descending"],
    )
    @pytest.mark.parametrize("chunk_type", CHUNK_TYPES)
    def test_kernel_counts_give_the_counter_placement(
        self, kernel, monkeypatch, requests, chunk_type
    ):
        counted = []
        element_counts = kernel.element_counts
        monkeypatch.setattr(
            kernel, "element_counts", lambda *args: counted.append(1) or element_counts(*args)
        )
        placement = frequency_placement(31, as_type(requests, chunk_type))
        assert placement == static_opt._counted_placement(31, requests)
        assert counted == [1]

    def test_short_and_unreadable_sequences_take_the_counter(self, kernel, monkeypatch):
        monkeypatch.setattr(kernel, "element_counts", None)  # would raise if called
        assert frequency_placement(31, [4, 4, 2]) == static_opt._counted_placement(31, [4, 4, 2])
        monkeypatch.undo()
        floats = [4.0] * 40
        assert frequency_placement(31, floats) == static_opt._counted_placement(31, floats)

    @pytest.mark.parametrize("bad", [31, -1, 2**70])
    def test_an_element_outside_keeps_the_counter_error(self, kernel, bad):
        message = f"^sequence contains element {bad} outside universe of size 31$"
        with pytest.raises(AlgorithmError, match=message):
            frequency_placement(31, [3] * 40 + [bad, 2])


class TestRepeatRuleArray:
    @pytest.mark.parametrize("count", [0, 1, 2_047, 2_048, 20_000])
    @pytest.mark.parametrize("start", [0, 1])
    def test_matches_the_list_rule(self, kernel, monkeypatch, count, start):
        """The kernel's rule runs on an ``array('q')`` copy, which it returns."""
        values = [random.Random(count).randrange(1_023) for _ in range(count + start)]
        chunk = array("q", values)
        list_rng, array_rng = random.Random(8), random.Random(8)
        previous = values[0] if start else 17
        result = draws.repeat_rule(array_rng, chunk, start, previous, 0.45)
        with monkeypatch.context() as patch:
            patch.setattr(draws, "_word_kernel", lambda rng, count: None)
            expected = draws.repeat_rule(list_rng, values, start, previous, 0.45)
        assert type(expected) is list
        drew = count >= draws.WORD_MIN_DRAWS
        assert type(result) is (array if drew else list)
        assert list(result) == expected and result is not chunk
        assert chunk.tolist() == values
        assert array_rng.getstate() == list_rng.getstate()

    @pytest.mark.parametrize("chunk_type", CHUNK_TYPES)
    @pytest.mark.parametrize("chunk_size", [1, 97, 2_048, 20_000])
    def test_streams_match_with_and_without_the_kernel(
        self, chunk_size, chunk_type, monkeypatch
    ):
        base = [random.Random(1).randrange(255) for _ in range(20_000)]
        pieces = [base[i : i + chunk_size] for i in range(0, len(base), chunk_size)]

        def stream():
            rng = random.Random(2)
            chunks = [as_type(piece, chunk_type) for piece in pieces]
            out = _repeat_postprocess_chunks(iter(chunks), 0.7, rng)
            return [v for chunk in out for v in chunk], rng.getstate()

        expected = stream()
        monkeypatch.setattr(draws, "_word_kernel", lambda rng, count: None)
        assert stream() == expected
