"""Property tests: the two serve paths of every algorithm agree.

Every registered algorithm has two serve paths:

* the *reference* path, ``_adjust``, which a built tree runs on every
  request (``serve`` and ``serve_batch`` alike) with the validated swap
  primitives and the open/charge/close ledger protocol; and
* the C kernel's chunk function, which serves a seeded tree held in flat
  buffers only (``cascade_kernel.SeededTrees``).

These tests assert, over seeded random workloads, that a seeded owner and
the tree that ``make_algorithm`` builds from the same seeds stay identical
chunk by chunk: totals, placement, rotor pointers, LRU index, the
Mersenne Twister state and (where records are kept) the per-request
records.  The reference's own realisations (cyclic shift or adjacent swaps,
marking enforced or not) and an algorithm without a chunk function are
pinned against each other as well.
"""

from __future__ import annotations

from array import array

import pytest

from repro.algorithms import cascade_kernel
from repro.algorithms.base import OnlineTreeAlgorithm
from repro.algorithms.registry import ALGORITHMS, get_algorithm_class, make_algorithm
from repro.core.cost import RequestRecordColumns
from repro.exceptions import MappingError
from repro.workloads.composite import CombinedLocalityWorkload
from repro.workloads.temporal import TemporalWorkload
from repro.workloads.uniform import UniformWorkload

N_NODES = 127
N_REQUESTS = 1_500
#: Uneven chunks, alternately lists and ``array('q')``.
CHUNK_SIZE = 97

ALGORITHM_NAMES = sorted(ALGORITHMS)
#: The algorithms whose chunk function serves a tree (all but Static-Opt,
#: which only counts requests).
TREE_KERNEL_ALGORITHMS = [
    name
    for name in ALGORITHM_NAMES
    if get_algorithm_class(name).kernel not in (None, "static_opt")
]


@pytest.fixture(scope="module")
def kernel():
    loaded = cascade_kernel.load()
    if loaded is None or not loaded.rng_port_matches:
        pytest.skip("the kernel path needs the cascade kernel and its RNG check")
    return loaded


def _make(name: str, placement_seed: int, keep_records: bool, **kwargs):
    return make_algorithm(
        name,
        n_nodes=N_NODES,
        placement_seed=placement_seed,
        seed=11,
        keep_records=keep_records,
        **kwargs,
    )


def _workload_sequence(seed: int, uniform: bool = False):
    if uniform:
        return UniformWorkload(N_NODES, seed=seed).generate(N_REQUESTS)
    return CombinedLocalityWorkload(N_NODES, 1.5, 0.4, seed=seed).generate(N_REQUESTS)


def _chunks(sequence):
    chunks = [
        sequence[start:start + CHUNK_SIZE]
        for start in range(0, len(sequence), CHUNK_SIZE)
    ]
    return [array("q", chunk) if index % 2 else chunk for index, chunk in enumerate(chunks)]


def _run_reference(algorithm, sequence):
    if algorithm.requires_preparation:
        algorithm.prepare(list(sequence))
    for element in sequence:
        algorithm.serve(element)


def _assert_same_state(served, reference, context: str):
    served_ledger = served.network.ledger
    ref_ledger = reference.network.ledger
    assert served_ledger.n_requests == ref_ledger.n_requests, context
    assert served_ledger.total_access_cost == ref_ledger.total_access_cost, context
    assert served_ledger.total_adjustment_cost == ref_ledger.total_adjustment_cost, context
    assert served.network.placement() == reference.network.placement(), context
    if served.network.rotor is not None:
        assert served.network.rotor.pointers() == reference.network.rotor.pointers(), context


def _single_request_chunks(sequence):
    """One request per chunk, alternately a list and an ``array('q')``, with
    an empty chunk of either type before every tenth request."""
    chunks = []
    for index, element in enumerate(sequence):
        if index % 10 == 0:
            chunks.append(array("q") if index % 20 else [])
        chunks.append(array("q", [element]) if index % 2 else [element])
    return chunks


def assert_kernel_matches_reference(
    kernel, assert_owner_matches_tree, name, chunks, placement_seed, keep_records
):
    """Serve ``chunks`` one by one on a seeded owner and through the
    reference of the tree the same seeds build; compare after every chunk."""
    owner = cascade_kernel.SeededTrees(kernel, get_algorithm_class(name).kernel, N_NODES)
    owner.draw(placement_seed, 11)
    reference = _make(name, placement_seed, keep_records)
    records = RequestRecordColumns() if keep_records else None
    served = 0
    for chunk in chunks:
        totals = owner.serve_chunks([chunk], records)
        _run_reference(reference, chunk)
        served += len(chunk)
        ledger = reference.network.ledger
        assert totals == (
            len(chunk), ledger.total_access_cost, ledger.total_adjustment_cost
        ), (name, served)
        assert ledger.n_requests == served
        assert_owner_matches_tree(owner, reference)
        if keep_records:
            assert records == ledger.records, (name, served)


@pytest.mark.parametrize("workload_seed", [0, 5])
@pytest.mark.parametrize("name", TREE_KERNEL_ALGORITHMS)
def test_kernel_matches_reference(kernel, assert_owner_matches_tree, name, workload_seed):
    """A seeded owner's chunk function equals ``_adjust``, chunk by chunk."""
    assert_kernel_matches_reference(
        kernel, assert_owner_matches_tree, name, _chunks(_workload_sequence(workload_seed)),
        7 + workload_seed, keep_records=False,
    )


@pytest.mark.parametrize("name", TREE_KERNEL_ALGORITHMS)
def test_kernel_records_match_reference(kernel, assert_owner_matches_tree, name):
    """The records the kernel fills are the reference's, request by request."""
    assert_kernel_matches_reference(
        kernel, assert_owner_matches_tree, name, _chunks(_workload_sequence(3, uniform=True)),
        21, keep_records=True,
    )


@pytest.mark.parametrize("name", TREE_KERNEL_ALGORITHMS)
def test_kernel_matches_reference_on_repeat_runs(kernel, assert_owner_matches_tree, name):
    """Long runs of one element (temporal locality 0.75), records kept: every
    repeat is one request on both paths, in the LRU clock and the records."""
    sequence = TemporalWorkload(N_NODES, 0.75, seed=8).generate(N_REQUESTS)
    assert_kernel_matches_reference(
        kernel, assert_owner_matches_tree, name, _chunks(sequence), 19, keep_records=True,
    )


@pytest.mark.parametrize("name", TREE_KERNEL_ALGORITHMS)
def test_kernel_matches_reference_on_single_request_chunks(
    kernel, assert_owner_matches_tree, name
):
    """Chunks of one request and empty chunks: the chunk function carries its
    state across calls exactly as the tree does."""
    sequence = _workload_sequence(6)[:120]
    assert_kernel_matches_reference(
        kernel, assert_owner_matches_tree, name, _single_request_chunks(sequence), 23,
        keep_records=True,
    )


@pytest.mark.parametrize("name", TREE_KERNEL_ALGORITHMS)
def test_rejected_chunk_serves_nothing_on_either_path(
    kernel, assert_owner_matches_tree, name
):
    """A chunk with an element outside the universe raises the same
    :class:`MappingError` on both paths and serves none of its requests;
    the next chunks are served as if it had never come."""
    sequence = _workload_sequence(1)[:300]
    owner = cascade_kernel.SeededTrees(kernel, get_algorithm_class(name).kernel, N_NODES)
    owner.draw(27, 11)
    reference = _make(name, 27, keep_records=False)
    owner.serve_chunks([sequence[:100]])
    reference.serve_batch(sequence[:100])
    rejected = sequence[100:140] + [N_NODES] + sequence[140:150]
    with pytest.raises(MappingError) as from_owner:
        owner.serve_chunks([rejected])
    with pytest.raises(MappingError) as from_reference:
        reference.serve_batch(rejected)
    assert str(from_owner.value) == str(from_reference.value)
    assert reference.network.ledger.n_requests == 100
    assert_owner_matches_tree(owner, reference)
    totals = owner.serve_chunks([sequence[100:]])
    reference.serve_batch(sequence[100:])
    ledger = reference.network.ledger
    assert totals == (
        200, ledger.total_access_cost, ledger.total_adjustment_cost
    )
    assert ledger.n_requests == 300
    assert_owner_matches_tree(owner, reference)


@pytest.mark.parametrize("workload_seed", [0, 5])
def test_static_opt_count_total_matches_reference(kernel, workload_seed):
    """Static-Opt's count total equals its prepared tree served by the reference."""
    sequence = _workload_sequence(workload_seed)
    owner = cascade_kernel.SeededTrees(kernel, "static_opt", N_NODES)
    totals = owner.serve(7, 11, _chunks(sequence))
    reference = _make("static-opt", 7, keep_records=False)
    _run_reference(reference, sequence)
    ledger = reference.network.ledger
    assert totals == (
        ledger.n_requests, ledger.total_access_cost, ledger.total_adjustment_cost
    )


@pytest.mark.parametrize("name", ["rotor-push", "random-push", "move-half"])
def test_cyclic_shift_matches_exact_swap_realisation(name):
    """Both realisations of ``_adjust`` give the same trees and costs."""
    sequence = _workload_sequence(9)
    shifted = _make(name, placement_seed=13, keep_records=False, exact_swaps=False)
    swapped = _make(name, placement_seed=13, keep_records=False, exact_swaps=True)
    shifted.run(sequence)
    _run_reference(swapped, sequence)
    _assert_same_state(shifted, swapped, name)


class _MarkingPromote(OnlineTreeAlgorithm):
    """Toy algorithm without a chunk function that marks the node it swaps."""

    name = "marking-promote"

    def _adjust(self, element, level):
        network = self.network
        node = network.node_of(element)
        if node != 0:
            network.mark(node)
            network.swap_with_parent(node)


def test_algorithm_without_chunk_function_batches_like_reference():
    """``run`` (one ``serve_batch`` chunk) equals serving request by request."""
    sequence = _workload_sequence(2)
    batched = _MarkingPromote.for_tree(
        n_nodes=N_NODES, placement_seed=31, keep_records=False
    )
    reference = _MarkingPromote.for_tree(
        n_nodes=N_NODES, placement_seed=31, keep_records=False
    )
    batched.run(sequence)
    _run_reference(reference, sequence)
    _assert_same_state(batched, reference, "marking promote")


@pytest.mark.parametrize("keep_records", [False, True])
def test_algorithm_without_chunk_function_accounts_chunks_in_order(keep_records):
    """Forty-request ``serve_batch`` chunks account every request in serve
    order: totals, placement and records equal serving one at a time."""
    sequence = _workload_sequence(6)
    batched = _MarkingPromote.for_tree(
        n_nodes=N_NODES, placement_seed=5, keep_records=keep_records
    )
    reference = _MarkingPromote.for_tree(
        n_nodes=N_NODES, placement_seed=5, keep_records=keep_records
    )
    for start in range(0, len(sequence), 40):
        batched.serve_batch(sequence[start:start + 40])
    _run_reference(reference, sequence)
    _assert_same_state(batched, reference, "marking promote")
    assert batched.network.ledger.records == reference.network.ledger.records
    assert len(batched.network.ledger.records) == (len(sequence) if keep_records else 0)


def test_batch_serving_invalidates_marks_between_requests():
    """Marks set by an ``_adjust`` do not leak into the next request."""
    algorithm = _MarkingPromote.for_tree(
        n_nodes=N_NODES, placement_seed=31, keep_records=False
    )
    deep_element = algorithm.network.element_at(N_NODES - 1)
    marked_node = algorithm.network.node_of(deep_element)
    algorithm.run([deep_element])
    assert not algorithm.network.is_marked(marked_node)


@pytest.mark.parametrize("name", ["rotor-push", "max-push", "move-to-front"])
def test_enforced_marking_matches_unenforced_run(name):
    """Runs on marking-enforcing networks equal runs without the checks."""
    sequence = _workload_sequence(4)
    unenforced = _make(name, placement_seed=17, keep_records=False)
    checked = _make(name, placement_seed=17, keep_records=False, enforce_marking=True)
    unenforced.run(sequence)
    checked.run(sequence)
    _assert_same_state(unenforced, checked, name)
