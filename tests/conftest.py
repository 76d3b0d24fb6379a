"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import random
import sys
import warnings

import pytest

from repro.core import CompleteBinaryTree, RotorState, TreeNetwork

# Hypothesis imports this module only to report a failing example, and its
# libcst import defines a class through mypy_extensions.TypedDict, whose
# DeprecationWarning pytest.ini turns into an error inside pytest's report
# hook: the session would stop with INTERNALERROR instead of reporting the
# failure.  Importing it here once, with only that warning ignored, makes
# the later import a cache hit.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore",
        message=r"mypy_extensions\.TypedDict is deprecated",
        category=DeprecationWarning,
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def tree_depth3() -> CompleteBinaryTree:
    """The 15-node tree used by Figure 1 of the paper."""
    return CompleteBinaryTree.from_depth(3)


@pytest.fixture
def tree_depth5() -> CompleteBinaryTree:
    """A 63-node tree, large enough for non-trivial algorithm behaviour."""
    return CompleteBinaryTree.from_depth(5)


@pytest.fixture
def network_depth3(tree_depth3) -> TreeNetwork:
    """Identity-placed network on the 15-node tree, with rotor pointers."""
    return TreeNetwork(tree_depth3, with_rotor=True)


@pytest.fixture
def network_depth5_random(tree_depth5) -> TreeNetwork:
    """Randomly-placed network on the 63-node tree, with rotor pointers."""
    return TreeNetwork.with_random_placement(tree_depth5, seed=123, with_rotor=True)


@pytest.fixture
def rotor_depth3(tree_depth3) -> RotorState:
    """All-left rotor state on the 15-node tree (the paper's initial state)."""
    return RotorState(tree_depth3)


@pytest.fixture
def rng() -> random.Random:
    """A seeded random generator for tests that need auxiliary randomness."""
    return random.Random(20220422)


@pytest.fixture
def short_uniform_sequence(rng) -> list:
    """A short uniform request sequence over 63 elements."""
    return [rng.randrange(63) for _ in range(500)]


@pytest.fixture
def draw_sources_at(monkeypatch):
    """Make trial workers draw every source at a given generator chunk size.

    Plan runs stream at the constant ``DEFAULT_CHUNK_SIZE``.  Calling the
    returned function with ``chunk_size`` re-points the worker draws of
    spec sources (``iter_requests``) and traffic sources
    (``iter_source_streams``) at that cut, so a test can check that no
    result depends on it.  The persistent pool is re-forked on the call and
    on teardown, so pooled workers run with the same draws as the test.
    """
    from repro.network.traffic import TrafficSpec
    from repro.sim import parallel, runner
    from repro.workloads.spec import build_workload

    iter_source_streams = TrafficSpec.iter_source_streams

    def draw_at(chunk_size: int) -> None:
        monkeypatch.setattr(
            runner,
            "_chunks_of",
            lambda source: build_workload(source.spec).iter_requests(
                source.n_requests, chunk_size
            ),
        )
        monkeypatch.setattr(
            TrafficSpec,
            "iter_source_streams",
            lambda traffic, requests_per_source: iter_source_streams(
                traffic, requests_per_source, chunk_size
            ),
        )
        runner._shared_chunks_cache.clear()
        parallel.shutdown_persistent_pool()

    yield draw_at
    monkeypatch.undo()
    runner._shared_chunks_cache.clear()
    parallel.shutdown_persistent_pool()


@pytest.fixture
def corrupt_record():
    """Flip one byte of a checkpoint record's body, so its checksum fails."""
    from repro.resilience import ResultStore

    def corrupt(root, key: str) -> None:
        segment, offset, _length, _checksum = ResultStore(root)._entries()[key]
        with open(segment, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ 0x01]))

    return corrupt


def _never_accessed_bitmaps(buffers):
    """Each level's never-accessed words and summary integer, read off a
    seeded owner's flat buffers in ``LevelLRUIndex``'s layout."""
    n_words, n_summary = buffers["n_words"], buffers["n_summary"]
    words, summary = buffers["never_words"], buffers["never_summary"]
    return (
        [words[start:start + n_words].tolist() for start in range(0, len(words), n_words)],
        [
            int.from_bytes(summary[start:start + n_summary].tobytes(), sys.byteorder)
            for start in range(0, len(summary), n_summary)
        ],
    )


def _assert_owner_matches_tree(owner, tree) -> None:
    """A seeded owner's placement, rotor pointers, LRU index and Mersenne
    Twister equal the built ``tree``'s lists, index and ``random.Random``.

    ``owner`` is a ``cascade_kernel.SeededTrees`` of any chunk function but
    Static-Opt's, which keeps counts instead of a placement.
    """
    buffers, state, network = owner._buffers, owner._state, tree.network
    function = owner.function
    assert buffers["elem_at"].tolist() == network._elem_at
    assert buffers["node_of"].tolist() == network._node_of
    if function == "rotor_push":
        assert buffers["pointers"].tolist() == network.rotor._pointers
    if function == "random_push":
        words = tree._rng.getstate()[1]
        assert (*buffers["mt"], state.mt_index) == words
    if function in ("move_half", "max_push"):
        lru = tree._lru
        for field in ("next", "prev", "last_access", "level_of"):
            assert buffers[field].tolist() == getattr(lru, f"_{field}"), field
        assert _never_accessed_bitmaps(buffers) == (lru._never_words, lru._never_summary)
        assert state.clock == lru._clock


@pytest.fixture
def assert_owner_matches_tree():
    """Compare a seeded owner's whole state with the tree the same seeds
    build and serve (see ``_assert_owner_matches_tree``)."""
    return _assert_owner_matches_tree
