"""Live serve on resident seeded owners, against the tree the same seeds build.

A bound source whose algorithm, tree size and seeds
:func:`repro.algorithms.registry.seeded_serving` admits keeps one
``SeededTrees`` owner, drawn when it binds and served in C batch after
batch.  Its batch costs, running totals and whole state (placement, rotor
pointers, LRU index, Mersenne Twister words) must equal a tree that
``make_algorithm`` builds from the same seeds and serves the same batches
through ``serve_batch``.  Without the kernel, or below the seeded floor, the
engine serves on that tree itself, and ``repro replay`` of either kind of
session prints the live table byte for byte.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.algorithms import cascade_kernel
from repro.algorithms.registry import ALGORITHMS, get_algorithm_class, make_algorithm
from repro.cli import main
from repro.core.draws import SEEDED_KERNEL_MIN_DRAWS
from repro.plans.execute import NETWORK_TRIAL_SEED_STRIDE
from repro.exceptions import MappingError
from repro.serve.engine import CheckedBatch, ServeEngine, ServeError
from repro.serve.ingest import IngestWriter, read_ingest_log

#: The online algorithms with a kernel chunk function: every one a live
#: source may serve on a resident owner.
LIVE_KERNEL_ALGORITHMS = [
    name
    for name in ALGORITHMS
    if get_algorithm_class(name).kernel
    and not get_algorithm_class(name).requires_preparation
]
BASE_SEED = 7


@pytest.fixture(scope="module")
def kernel():
    loaded = cascade_kernel.load()
    if loaded is None or not loaded.rng_port_matches:
        pytest.skip("resident owners need the cascade kernel and its RNG check")
    return loaded


def mixed_batches(n_nodes: int, n_batches: int, seed: int):
    """``n_batches`` batches of 1 to 40 destinations, with repeat runs."""
    rng = random.Random(seed)
    batches = []
    for _ in range(n_batches):
        length = rng.randint(1, 40)
        if rng.random() < 0.2:
            batches.append([rng.randrange(n_nodes)] * length)
        else:
            batches.append([rng.randrange(n_nodes) for _ in range(length)])
    return batches


def reference_tree(algorithm: str, n_nodes: int, source_id: int):
    """The tree trial 0 of source ``source_id``'s replay stage builds."""
    window = BASE_SEED + source_id * NETWORK_TRIAL_SEED_STRIDE
    return make_algorithm(
        algorithm,
        n_nodes=n_nodes,
        placement_seed=window + 10_000,
        seed=window + 20_000,
        keep_records=False,
    )


def owner_snapshot(owner):
    """Every buffer and state field of a seeded owner, copied."""
    state = owner._state
    return (
        {name: value.tolist() if isinstance(value, array) else value
         for name, value in owner._buffers.items()},
        state.access_total, state.adjustment_total, state.clock, state.mt_index,
    )


def session(tmp_path, algorithm: str, n_nodes: int, n_batches: int = 60):
    """Serve two logged sources live; return the engine, its log still open,
    and the log directory."""
    log_dir = tmp_path / "ingest"
    engine = ServeEngine(
        n_nodes,
        algorithm,
        base_seed=BASE_SEED,
        log=IngestWriter(
            log_dir,
            {"n_nodes": n_nodes, "algorithm": {"name": algorithm}, "base_seed": BASE_SEED},
        ),
    )
    for source in ("alpha", "beta"):
        engine.bind(source)
    for index, batch in enumerate(mixed_batches(n_nodes, n_batches, 3)):
        engine.submit(("alpha", "beta")[index % 2], batch)
    return engine, log_dir


def assert_replay_prints_the_live_table(engine, log_dir, capsys) -> None:
    engine.log.close()
    capsys.readouterr()
    assert main(["replay", str(log_dir)]) == 0
    # the serve client's --print-table rendering
    assert capsys.readouterr().out == engine.cost_table().format_text() + "\n\n"


class TestResidentOwner:
    @pytest.mark.parametrize("n_nodes", [63, 1_023])
    @pytest.mark.parametrize("algorithm", LIVE_KERNEL_ALGORITHMS)
    def test_batches_equal_the_tree_the_same_seeds_build(
        self, kernel, assert_owner_matches_tree, algorithm, n_nodes
    ):
        engine = ServeEngine(n_nodes, algorithm, base_seed=BASE_SEED)
        sources = ("alpha", "beta")
        states = [engine.bind(source) for source in sources]
        trees = [reference_tree(algorithm, n_nodes, index) for index in range(2)]
        for state, tree in zip(states, trees):
            assert state.algorithm is None and state.owner.function == tree.kernel
            assert_owner_matches_tree(state.owner, tree)
        for index, batch in enumerate(mixed_batches(n_nodes, 300, n_nodes)):
            which = index % 3 % 2  # alpha twice as often as beta
            state, tree = states[which], trees[which]
            ledger = tree.network.ledger
            access, adjustment = ledger.total_access_cost, ledger.total_adjustment_cost
            outcome = engine.submit(sources[which], batch)
            tree.serve_batch(batch)
            assert outcome == {
                "n": len(batch),
                "access_cost": ledger.total_access_cost - access,
                "adjustment_cost": ledger.total_adjustment_cost - adjustment,
            }
            assert (state.n_requests, state.total_access_cost, state.total_adjustment_cost) == (
                ledger.n_requests, ledger.total_access_cost, ledger.total_adjustment_cost
            )
            if index % 25 == 0:
                assert_owner_matches_tree(state.owner, tree)
        for state, tree in zip(states, trees):
            assert (state.owner.access_total, state.owner.adjustment_total) == (
                state.total_access_cost, state.total_adjustment_cost
            )
            assert_owner_matches_tree(state.owner, tree)

    @pytest.mark.parametrize("destination", [-1, 63, 2**70], ids=["negative", "n", "past-64-bits"])
    @pytest.mark.parametrize("algorithm", ["rotor-push", "random-push", "max-push"])
    def test_a_rejected_batch_changes_neither_the_owner_nor_the_log(
        self, kernel, tmp_path, algorithm, destination
    ):
        engine, log_dir = session(tmp_path, algorithm, 63, n_batches=10)
        owner = engine.source("alpha").owner
        records = read_ingest_log(log_dir).records
        before = owner_snapshot(owner)
        with pytest.raises(ServeError, match="outside"):
            engine.submit("alpha", [1, 2, destination])
        engine.log.close()
        assert owner_snapshot(owner) == before
        assert read_ingest_log(log_dir).records == records
        assert engine.source("alpha").n_requests == sum(
            len(record["destinations"]) for record in records
            if record["type"] == "request" and record["source_id"] == 0
        )

    def assert_refused(self, engine, log_dir, destinations, message):
        """``destinations`` raises ``message`` and leaves the owner, the
        source's totals and the log as they were."""
        owner = engine.source("alpha").owner
        records = read_ingest_log(log_dir).records
        before = owner_snapshot(owner)
        served = engine.source("alpha").n_requests
        with pytest.raises(ServeError) as refused:
            engine.submit("alpha", destinations)
        assert str(refused.value) == message
        assert owner_snapshot(owner) == before
        assert engine.source("alpha").n_requests == served
        engine.log.flush()
        assert read_ingest_log(log_dir).records == records
        assert engine.submit("alpha", [1, 2, 62])["n"] == 3
        engine.log.close()

    @pytest.mark.parametrize(
        "destination", [True, 1.5, -1, 63, 2**63], ids=["true", "float", "negative", "n", "2**63"]
    )
    def test_a_refused_batch_is_neither_logged_nor_served(self, kernel, tmp_path, destination):
        engine, log_dir = session(tmp_path, "rotor-push", 63, n_batches=10)
        message = f"destination {destination!r} outside the 63-node tree"
        self.assert_refused(engine, log_dir, [1, 2, destination], message)

    @pytest.mark.parametrize(
        "destination", [True, 1.5, -1, 63, 2**63], ids=["true", "float", "negative", "n", "2**63"]
    )
    def test_a_checked_batch_is_made_only_by_its_check(self, destination):
        with pytest.raises(ServeError, match="outside the 63-node tree"):
            CheckedBatch([1, 2, destination], 63)

    def test_a_batch_checked_for_a_larger_tree_is_refused(self, kernel, tmp_path):
        engine, log_dir = session(tmp_path, "rotor-push", 63, n_batches=10)
        larger = ServeEngine(1023, "rotor-push").check([1, 500, 2])
        assert type(larger) is CheckedBatch
        message = "destination 500 outside the 63-node tree"
        self.assert_refused(engine, log_dir, larger, message)

    def test_a_forged_checked_batch_is_refused(self, kernel, tmp_path):
        # made without the check: the engine checks its elements again
        engine, log_dir = session(tmp_path, "rotor-push", 63, n_batches=10)
        forged = tuple.__new__(CheckedBatch, [5000])
        message = "destination 5000 outside the 63-node tree"
        self.assert_refused(engine, log_dir, forged, message)

    def test_a_checked_batch_is_served_as_it_was_checked(self, kernel, tmp_path):
        engine, log_dir = session(tmp_path, "rotor-push", 63, n_batches=0)
        batch = engine.check([5, 0, 62, 5])
        assert engine.check(batch) is batch
        assert engine.submit("alpha", batch)["n"] == 4
        engine.log.close()
        assert read_ingest_log(log_dir).request_records()[-1]["destinations"] == [5, 0, 62, 5]

    def test_the_owner_bounds_every_batch_it_serves(self, kernel):
        # the kernel's own bounds pass guards its buffers, whatever the
        # engine's check passed through
        engine = ServeEngine(63, "rotor-push")
        owner = engine.bind("alpha").owner
        with pytest.raises(MappingError, match="element 63 outside universe of size 63"):
            owner.serve_chunks((tuple.__new__(CheckedBatch, [1, 63]),))
        assert owner.access_total == 0

    @pytest.mark.parametrize("algorithm", ["rotor-push", "random-push", "move-half"])
    def test_replay_prints_the_live_table(self, kernel, tmp_path, capsys, algorithm):
        engine, log_dir = session(tmp_path, algorithm, 63)
        assert engine.source("alpha").owner is not None
        assert_replay_prints_the_live_table(engine, log_dir, capsys)


class TestTreeFallback:
    @pytest.mark.parametrize("algorithm", ["rotor-push", "random-push"])
    def test_kernel_hidden(self, monkeypatch, tmp_path, capsys, algorithm):
        monkeypatch.setattr(cascade_kernel, "load", lambda: None)
        engine, log_dir = session(tmp_path, algorithm, 63)
        for state in engine.sources:
            assert state.owner is None and state.algorithm is not None
        assert_replay_prints_the_live_table(engine, log_dir, capsys)
        monkeypatch.undo()  # the replay serves on the kernel; the table stays
        assert_replay_prints_the_live_table(engine, log_dir, capsys)

    @pytest.mark.parametrize("algorithm", ["rotor-push", "random-push"])
    def test_a_tree_under_the_seeded_floor(self, tmp_path, capsys, algorithm):
        assert 15 < SEEDED_KERNEL_MIN_DRAWS
        engine, log_dir = session(tmp_path, algorithm, 15)
        for state in engine.sources:
            assert state.owner is None and state.algorithm is not None
        assert_replay_prints_the_live_table(engine, log_dir, capsys)
