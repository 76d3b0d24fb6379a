"""Property tests: trusted fast paths are bit-identical to the reference loop.

Every registered algorithm now has two serve paths:

* the *reference* path (``serve_reference`` / ``_adjust``), which uses the
  validated swap primitives and the open/charge/close ledger protocol; and
* the *fast* path (``serve`` on non-marking networks and the ``run`` loop with
  ``keep_records=False``), which uses trusted bit-arithmetic primitives and
  batch cost accounting.

These tests assert, over seeded random workloads, that the two paths produce
identical total access/adjustment costs, identical final placements, identical
rotor pointers, and (where records are kept) identical per-request cost
records.
"""

from __future__ import annotations

import pytest

from repro.algorithms.base import OnlineTreeAlgorithm
from repro.algorithms.move_to_front import MoveToFrontTree
from repro.algorithms.registry import ALGORITHMS, make_algorithm
from repro.workloads.composite import CombinedLocalityWorkload
from repro.workloads.uniform import UniformWorkload

N_NODES = 127
N_REQUESTS = 1_500

ALGORITHM_NAMES = sorted(ALGORITHMS)


def _make(name: str, placement_seed: int, keep_records: bool):
    return make_algorithm(
        name,
        n_nodes=N_NODES,
        placement_seed=placement_seed,
        seed=11,
        keep_records=keep_records,
    )


def _workload_sequence(seed: int, uniform: bool = False):
    if uniform:
        return UniformWorkload(N_NODES, seed=seed).generate(N_REQUESTS)
    return CombinedLocalityWorkload(N_NODES, 1.5, 0.4, seed=seed).generate(N_REQUESTS)


def _run_reference(algorithm, sequence):
    if algorithm.requires_preparation:
        algorithm.prepare(list(sequence))
    for element in sequence:
        algorithm.serve_reference(element)


def _assert_same_state(fast, reference, context: str):
    fast_ledger = fast.network.ledger
    ref_ledger = reference.network.ledger
    assert fast_ledger.n_requests == ref_ledger.n_requests, context
    assert fast_ledger.total_access_cost == ref_ledger.total_access_cost, context
    assert fast_ledger.total_adjustment_cost == ref_ledger.total_adjustment_cost, context
    assert fast.network.placement() == reference.network.placement(), context
    if fast.network.rotor is not None:
        assert fast.network.rotor.pointers() == reference.network.rotor.pointers(), context


@pytest.mark.parametrize("workload_seed", [0, 5])
@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_fast_run_loop_matches_reference(name, workload_seed):
    """The keep_records=False fast loop equals the checked reference loop."""
    sequence = _workload_sequence(workload_seed)
    fast = _make(name, placement_seed=7 + workload_seed, keep_records=False)
    reference = _make(name, placement_seed=7 + workload_seed, keep_records=False)
    fast.run(sequence)
    _run_reference(reference, sequence)
    _assert_same_state(fast, reference, f"{name} seed={workload_seed}")


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_fast_serve_records_match_reference(name):
    """serve() with records kept produces the same per-request costs as the reference."""
    sequence = _workload_sequence(3, uniform=True)
    fast = _make(name, placement_seed=21, keep_records=True)
    reference = _make(name, placement_seed=21, keep_records=True)
    if fast.requires_preparation:
        fast.prepare(list(sequence))
    for element in sequence:
        fast.serve(element)
    _run_reference(reference, sequence)
    _assert_same_state(fast, reference, name)
    assert fast.network.ledger.records == reference.network.ledger.records, name


@pytest.mark.parametrize("name", ["rotor-push", "random-push", "move-half"])
def test_fast_path_matches_exact_swap_realisation(name):
    """The fast path also equals the explicit adjacent-swap realisation."""
    sequence = _workload_sequence(9)
    fast = _make(name, placement_seed=13, keep_records=False)
    reference = make_algorithm(
        name,
        n_nodes=N_NODES,
        placement_seed=13,
        seed=11,
        keep_records=False,
        exact_swaps=True,
    )
    fast.run(sequence)
    _run_reference(reference, sequence)
    _assert_same_state(fast, reference, name)


class _UnportedPromote(OnlineTreeAlgorithm):
    """Toy algorithm without a trusted port: exercises the fallback fast loop."""

    name = "unported-promote"

    def _adjust(self, element, level):
        network = self.network
        node = network.node_of(element)
        if node != 0:
            network.mark(node)
            network.swap_with_parent(node)


def test_unported_algorithm_fallback_loop_matches_reference():
    """Algorithms whose _adjust_fast returns None replay the checked path."""
    sequence = _workload_sequence(2)
    fast = _UnportedPromote.for_tree(
        n_nodes=N_NODES, placement_seed=31, keep_records=False
    )
    reference = _UnportedPromote.for_tree(
        n_nodes=N_NODES, placement_seed=31, keep_records=False
    )
    fast.run(sequence)
    _run_reference(reference, sequence)
    _assert_same_state(fast, reference, "unported fallback")


def test_unported_fallback_invalidates_marks_between_requests():
    """Marks set by a fallback _adjust do not leak into the next request."""
    algorithm = _UnportedPromote.for_tree(
        n_nodes=N_NODES, placement_seed=31, keep_records=False
    )
    deep_element = algorithm.network.element_at(N_NODES - 1)
    marked_node = algorithm.network.node_of(deep_element)
    algorithm.run([deep_element])
    assert not algorithm.network.is_marked(marked_node)


class _HalfPortedMoveToFront(MoveToFrontTree):
    """Move-To-Front whose trusted port declines odd elements."""

    name = "half-ported-move-to-front"
    kernel = None

    def _adjust_fast(self, element, level):
        return None if element % 2 else super()._adjust_fast(element, level)


@pytest.mark.parametrize("keep_records", [False, True])
def test_batch_loop_mixes_ported_and_fallback_requests(keep_records):
    """The scalar batch loop accounts runs around checked fallbacks in order."""
    sequence = _workload_sequence(6)
    batched = _HalfPortedMoveToFront.for_tree(
        n_nodes=N_NODES, placement_seed=5, keep_records=keep_records
    )
    reference = _HalfPortedMoveToFront.for_tree(
        n_nodes=N_NODES, placement_seed=5, keep_records=keep_records
    )
    for start in range(0, len(sequence), 40):
        batched.serve_batch(sequence[start : start + 40])
    _run_reference(reference, sequence)
    _assert_same_state(batched, reference, "half-ported")
    assert batched.network.ledger.records == reference.network.ledger.records


@pytest.mark.parametrize("name", ["rotor-push", "max-push", "move-to-front"])
def test_enforced_marking_still_matches_fast_path(name):
    """Runs on marking-enforcing networks (fully checked) equal the fast path."""
    sequence = _workload_sequence(4)
    fast = _make(name, placement_seed=17, keep_records=False)
    checked = make_algorithm(
        name,
        n_nodes=N_NODES,
        placement_seed=17,
        seed=11,
        keep_records=False,
        enforce_marking=True,
    )
    fast.run(sequence)
    checked.run(sequence)
    _assert_same_state(fast, checked, name)
