"""The one-placement memo behind ``TreeNetwork.with_random_placement``.

Every algorithm of a trial builds its tree from the trial's placement seed,
so the last drawn placement is kept and copied.  These tests pin that a copy
is indistinguishable from a fresh draw, that serving never reaches the
memo, and that every placement actually drawn is still checked.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import make_algorithm
from repro.core import CompleteBinaryTree, TreeNetwork
from repro.core import state
from repro.exceptions import MappingError
from repro.workloads.uniform import UniformWorkload


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
        expected = fresh(tree, 4)
        assert hit._elem_at == expected._elem_at == first._elem_at
        assert hit._node_of == expected._node_of
        hit.validate()
        ints = state._shared_ints(n_nodes)
        for values in (hit._elem_at, hit._node_of):
            assert all(value is ints[value] for value in values)
        # fresh lists, owned by the network alone
        assert type(hit._elem_at) is list and type(hit._node_of) is list
        assert hit._elem_at is not first._elem_at
        assert hit._node_of is not first._node_of
        assert hit.rotor is not None and hit._node_of_np is None
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
