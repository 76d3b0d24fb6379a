"""The one-placement memo behind ``TreeNetwork.with_random_placement``.

Every algorithm of a trial builds its tree from the trial's placement seed,
so the last drawn placement is kept and copied.  These tests pin that a copy
is indistinguishable from a fresh draw, that serving never reaches the
memo, and that every placement actually drawn is still checked.  A miss of
``SEEDED_KERNEL_MIN_DRAWS`` nodes or more is drawn from the seed by one
kernel call; ``TestKernelPlacement`` pins it to the Python shuffle it
replaces.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms import cascade_kernel
from repro.algorithms.registry import make_algorithm
from repro.core import CompleteBinaryTree, TreeNetwork
from repro.core import state
from repro.core.state import random_placement
from repro.core.draws import SEEDED_KERNEL_MIN_DRAWS
from repro.exceptions import MappingError
from repro.workloads.uniform import UniformWorkload

#: The seeds of the kernel's load-time check: zero to three key words and a
#: negative seed.
SEEDS = [0, 1, -7, 2**32, 2**64 + 3]


@pytest.fixture(autouse=True)
def empty_memo():
    state._PLACEMENT_MEMO.clear()
    yield
    state._PLACEMENT_MEMO.clear()


def fresh(tree, seed, **options):
    """A network drawn from scratch, as if the memo were empty."""
    state._PLACEMENT_MEMO.clear()
    return TreeNetwork.with_random_placement(tree, seed=seed, **options)


class TestHit:
    @pytest.mark.parametrize("n_nodes", [1, 15, 1023])
    def test_a_hit_equals_a_fresh_build(self, n_nodes):
        tree = CompleteBinaryTree(n_nodes)
        first = TreeNetwork.with_random_placement(tree, seed=4)
        hit = TreeNetwork.with_random_placement(tree, seed=4, with_rotor=True)
        memo = state._PLACEMENT_MEMO[n_nodes, 4]
        expected = fresh(tree, 4)
        assert hit._elem_at == expected._elem_at == first._elem_at
        assert hit._node_of == expected._node_of
        hit.validate()
        # a hit shares the memo entry's int objects instead of boxing its own
        for values, held in zip((hit._elem_at, hit._node_of), memo):
            assert all(value is entry for value, entry in zip(values, held))
        # fresh lists, owned by the network alone
        assert type(hit._elem_at) is list and type(hit._node_of) is list
        assert hit._elem_at is not first._elem_at
        assert hit._node_of is not first._node_of
        assert hit.rotor is not None
        assert hit._mark_epoch == [0] * n_nodes and hit._epoch == 1

    def test_a_hit_draws_nothing(self, monkeypatch):
        tree = CompleteBinaryTree(63)
        TreeNetwork.with_random_placement(tree, seed=4)

        def no_draw(rng, n):
            raise AssertionError("a memo hit drew a placement")

        monkeypatch.setattr(state, "shuffled_range", no_draw)
        TreeNetwork.with_random_placement(tree, seed=4)

    def test_another_seed_or_size_misses_and_replaces_the_memo(self):
        small, large = CompleteBinaryTree(63), CompleteBinaryTree(127)
        TreeNetwork.with_random_placement(small, seed=4)
        TreeNetwork.with_random_placement(small, seed=5)
        assert list(state._PLACEMENT_MEMO) == [(63, 5)]
        TreeNetwork.with_random_placement(large, seed=5)
        assert list(state._PLACEMENT_MEMO) == [(127, 5)]
        assert (
            TreeNetwork.with_random_placement(small, seed=4)._elem_at
            == fresh(small, 4)._elem_at
        )


class TestIsolation:
    @pytest.mark.parametrize("name", ["max-push", "rotor-push", "random-push"])
    def test_serving_a_chunk_leaves_the_memo_unchanged(self, name):
        algorithm = make_algorithm(name, n_nodes=1023, placement_seed=8, seed=1)
        ((key, memo),) = state._PLACEMENT_MEMO.items()
        snapshot = tuple(map(list, memo))
        # one chunk of at least n_nodes requests: the C kernel when it loads
        algorithm.serve_batch(UniformWorkload(1023, seed=2).generate(3000))
        assert algorithm.network._elem_at != snapshot[0]
        ((after_key, after),) = state._PLACEMENT_MEMO.items()
        assert after_key == key and after is memo
        assert tuple(map(list, after)) == snapshot
        again = make_algorithm(name, n_nodes=1023, placement_seed=8, seed=1)
        assert again.network._elem_at == snapshot[0]
        assert again.network._node_of == snapshot[1]

    def test_a_swap_on_a_hit_leaves_the_memo_unchanged(self):
        tree = CompleteBinaryTree(15)
        TreeNetwork.with_random_placement(tree, seed=3)
        hit = TreeNetwork.with_random_placement(tree, seed=3)
        hit.swap(0, 1, charge=False)
        assert TreeNetwork.with_random_placement(tree, seed=3)._elem_at == (
            fresh(tree, 3)._elem_at
        )


class TestChecks:
    def test_a_miss_that_draws_no_bijection_raises(self, monkeypatch):
        tree = CompleteBinaryTree(15)
        TreeNetwork.with_random_placement(tree, seed=1)
        monkeypatch.setattr(state, "shuffled_range", lambda rng, n: [0] * n)
        with pytest.raises(MappingError, match="bijection"):
            TreeNetwork.with_random_placement(tree, seed=2)
        assert (15, 2) not in state._PLACEMENT_MEMO
        # the memo's placement was checked when it was drawn; a hit stays valid
        TreeNetwork.with_random_placement(tree, seed=1).validate()

    @pytest.mark.parametrize(
        "seed", [None, True, "trial-3", 3.0], ids=["none", "bool", "str", "float"]
    )
    def test_only_int_seeds_enter_the_memo(self, seed):
        tree = CompleteBinaryTree(31)
        TreeNetwork.with_random_placement(tree, seed=seed)
        TreeNetwork.with_random_placement(tree, seed=seed)
        assert state._PLACEMENT_MEMO == {}

    def test_an_int_subclass_seed_never_enters_the_memo(self):
        class Seed(int):
            pass

        tree = CompleteBinaryTree(31)
        TreeNetwork.with_random_placement(tree, seed=Seed(3))
        assert state._PLACEMENT_MEMO == {}
        # an int seed of the same value draws the same placement
        assert (
            TreeNetwork.with_random_placement(tree, seed=3)._elem_at
            == TreeNetwork.with_random_placement(tree, seed=Seed(3))._elem_at
        )


@pytest.fixture
def port():
    """The loaded kernel, skipping when it is absent or its port disagrees."""
    loaded = cascade_kernel.load()
    if loaded is None:
        pytest.skip("the cascade kernel needs a C compiler")
    if not loaded.rng_port_matches:
        pytest.skip("this interpreter's random module no longer matches the port")
    return loaded


@pytest.fixture
def kernel_placements(monkeypatch):
    """The sizes of every kernel placement drawn, which still draws."""
    cascade_kernel.load()  # its load-time check draws placements too
    sizes = []
    seeded_placement = cascade_kernel.CascadeKernel.seeded_placement

    def counting(self, seed, n):
        sizes.append(n)
        return seeded_placement(self, seed, n)

    monkeypatch.setattr(cascade_kernel.CascadeKernel, "seeded_placement", counting)
    return sizes


def python_placement(n_nodes, seed):
    """``random_placement`` on the ``random`` loops, and its inverse."""
    placement = list(range(n_nodes))
    random.Random(seed).shuffle(placement)
    inverse = [0] * n_nodes
    for node, element in enumerate(placement):
        inverse[element] = node
    return placement, inverse


class TestKernelPlacement:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_nodes", [1, 3, 255, 511, 1023, 65_535])
    def test_the_kernel_draws_the_python_shuffle(self, port, n_nodes, seed):
        elem_at, node_of = port.seeded_placement(seed, n_nodes)
        assert (elem_at.tolist(), node_of.tolist()) == python_placement(n_nodes, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_nodes", [7, 15, 31, 255, 511, 1023])
    def test_a_miss_from_the_threshold_up_is_one_kernel_call(
        self, n_nodes, seed, kernel_placements
    ):
        network = TreeNetwork.with_random_placement(CompleteBinaryTree(n_nodes), seed=seed)
        assert (network._elem_at, network._node_of) == python_placement(n_nodes, seed)
        network.validate()
        for values in (network._elem_at, network._node_of):
            assert type(values) is list
            assert all(type(value) is int for value in values)
        kernel = cascade_kernel.load()
        on_kernel = (
            n_nodes >= SEEDED_KERNEL_MIN_DRAWS
            and kernel is not None
            and kernel.rng_port_matches
        )
        assert kernel_placements == ([n_nodes] if on_kernel else [])
        # the memo holds the same placement, and a hit copies it
        assert state._PLACEMENT_MEMO[n_nodes, seed] == tuple(
            map(tuple, python_placement(n_nodes, seed))
        )
        hit = TreeNetwork.with_random_placement(CompleteBinaryTree(n_nodes), seed=seed)
        assert hit._elem_at == network._elem_at and hit._elem_at is not network._elem_at
        assert len(kernel_placements) <= 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_255_node_miss_takes_the_kernel(self, port, seed, kernel_placements):
        network = TreeNetwork.with_random_placement(CompleteBinaryTree(255), seed=seed)
        assert kernel_placements == [255]
        assert network._elem_at == random_placement(255, random.Random(seed))

    @pytest.mark.parametrize(
        "seed", [None, 3.0, "trial-3", True], ids=["none", "float", "str", "bool"]
    )
    def test_seeds_other_than_int_take_the_python_path(self, seed, kernel_placements):
        tree = CompleteBinaryTree(1023)
        network = TreeNetwork.with_random_placement(tree, seed=seed)
        network.validate()
        assert kernel_placements == []
        if seed is not None:
            assert network._elem_at == python_placement(1023, seed)[0]

    def test_a_failed_self_check_takes_the_python_path(
        self, port, monkeypatch, kernel_placements
    ):
        monkeypatch.setattr(
            cascade_kernel.CascadeKernel, "_rng_port_matches", lambda self: False
        )
        failed = cascade_kernel.CascadeKernel(port.path)
        assert not failed.rng_port_matches
        monkeypatch.setattr(cascade_kernel, "load", lambda: failed)
        network = TreeNetwork.with_random_placement(CompleteBinaryTree(1023), seed=9)
        assert (network._elem_at, network._node_of) == python_placement(1023, 9)
        assert kernel_placements == []

    def test_a_kernel_result_that_is_no_bijection_raises(self, port, monkeypatch):
        tree = CompleteBinaryTree(1023)
        TreeNetwork.with_random_placement(tree, seed=1)

        def repeated_element(state_pointer, key, key_length, n):
            return 17  # node 17 holds an element already placed

        monkeypatch.setattr(port, "_seeded_placement", repeated_element)
        with pytest.raises(MappingError, match="bijection"):
            TreeNetwork.with_random_placement(tree, seed=2)
        assert (1023, 2) not in state._PLACEMENT_MEMO
        TreeNetwork.with_random_placement(tree, seed=1).validate()
