"""The live serve engine: seed contract, batch invariance, validation.

The determinism crux pinned here: source ``k``'s live tree is built with
exactly the seeds trial 0 of a ``TrialPlan`` with ``base_seed = base_seed +
k * NETWORK_TRIAL_SEED_STRIDE`` would use — so live totals equal a plain
:func:`repro.sim.engine.simulate_stream` run on the concatenated sequence,
which is what makes ``repro replay`` bit-identical without a bespoke
executor.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.registry import AlgorithmSpec
from repro.exceptions import TreeStructureError
from repro.plans.execute import NETWORK_TRIAL_SEED_STRIDE, REPLAY_TABLE_COLUMNS
from repro.serve.engine import ServeEngine, ServeError
from repro.serve.ingest import IngestWriter, read_ingest_log
from repro.sim.engine import simulate_stream

N_NODES = 63


def batches_for(source_index, n_batches=12, batch_size=5, seed=99):
    rng = random.Random(seed + source_index)
    return [
        [rng.randrange(N_NODES) for _ in range(batch_size)]
        for _ in range(n_batches)
    ]


class TestSeedContract:
    @pytest.mark.parametrize("base_seed", [0, 17])
    def test_live_totals_match_simulate_stream(self, base_seed):
        engine = ServeEngine(N_NODES, "rotor-push", base_seed=base_seed)
        sources = ["alpha", "beta", "gamma"]
        for source in sources:
            engine.bind(source)
        for index, source in enumerate(sources):
            for batch in batches_for(index):
                engine.submit(source, batch)
        for index, source in enumerate(sources):
            window = base_seed + index * NETWORK_TRIAL_SEED_STRIDE
            sequence = [d for batch in batches_for(index) for d in batch]
            reference = simulate_stream(
                "rotor-push",
                [sequence],
                n_nodes=N_NODES,
                placement_seed=window + 10_000,
                seed=window + 20_000,
                keep_records=False,
            )
            state = engine.source(source)
            assert state.n_requests == reference.n_requests
            assert state.total_access_cost == reference.total_access_cost
            assert state.total_adjustment_cost == reference.total_adjustment_cost

    def test_source_ids_assigned_in_first_bind_order(self):
        engine = ServeEngine(N_NODES, "rotor-push")
        assert engine.bind("zeta").source_id == 0
        assert engine.bind("alpha").source_id == 1
        assert engine.bind("zeta").source_id == 0  # idempotent rebind
        assert [s.name for s in engine.sources] == ["zeta", "alpha"]

    def test_batch_boundaries_do_not_matter(self):
        sequence = [random.Random(7).randrange(N_NODES) for _ in range(120)]
        totals = []
        for sizes in ([120], [1] * 120, [7] * 17 + [1]):
            engine = ServeEngine(N_NODES, "rotor-push")
            engine.bind("s")
            cursor = 0
            for size in sizes:
                engine.submit("s", sequence[cursor : cursor + size])
                cursor += size
            assert cursor == 120
            state = engine.source("s")
            totals.append((state.total_access_cost, state.total_adjustment_cost))
        assert totals[0] == totals[1] == totals[2]

    def test_submit_returns_the_batch_cost_delta(self):
        engine = ServeEngine(N_NODES, "rotor-push")
        engine.bind("s")
        first = engine.submit("s", [3, 9, 27])
        second = engine.submit("s", [3, 9, 27])
        state = engine.source("s")
        assert first["n"] == second["n"] == 3
        assert state.total_access_cost == first["access_cost"] + second["access_cost"]
        assert (
            state.total_adjustment_cost
            == first["adjustment_cost"] + second["adjustment_cost"]
        )


class TestValidation:
    def test_offline_algorithm_rejected_at_construction(self):
        with pytest.raises(ServeError, match="offline"):
            ServeEngine(N_NODES, "static-opt")

    def test_unknown_algorithm_fails_fast(self):
        with pytest.raises(Exception):
            ServeEngine(N_NODES, "no-such-algorithm")

    @pytest.mark.parametrize("n_nodes", [10, 0, 64])
    def test_non_tree_size_rejected_at_construction(self, n_nodes):
        with pytest.raises(TreeStructureError, match=f"{n_nodes} nodes"):
            ServeEngine(n_nodes, "rotor-push")

    def test_unknown_param_rejected_at_construction(self):
        spec = AlgorithmSpec.create("max-push", exact_swaps=True)
        with pytest.raises(TypeError, match="exact_swaps"):
            ServeEngine(65_535, spec)

    def test_bad_source_names_rejected(self):
        engine = ServeEngine(N_NODES, "rotor-push")
        for bad in ("", None, 7):
            with pytest.raises(ServeError, match="source name"):
                engine.bind(bad)

    def test_unknown_source_rejected(self):
        engine = ServeEngine(N_NODES, "rotor-push")
        with pytest.raises(ServeError, match="unknown source"):
            engine.submit("ghost", [1])

    @pytest.mark.parametrize("destination", [-1, N_NODES, 10**9])
    def test_out_of_range_destination_rejected(self, destination):
        engine = ServeEngine(N_NODES, "rotor-push")
        engine.bind("s")
        with pytest.raises(ServeError, match="outside"):
            engine.submit("s", [1, destination])

    def test_rejected_batch_leaves_no_trace(self, tmp_path):
        engine = ServeEngine(
            N_NODES,
            "rotor-push",
            log=IngestWriter(tmp_path / "log", {"n_nodes": N_NODES}),
        )
        engine.bind("s")
        with pytest.raises(ServeError):
            engine.submit("s", [1, N_NODES])
        engine.log.close()
        state = engine.source("s")
        assert state.n_requests == 0
        assert state.total_access_cost == 0
        # the log saw the bind but not the rejected batch
        log = read_ingest_log(tmp_path / "log")
        assert [r["type"] for r in log.records] == ["bind"]


class TestLogging:
    def test_bind_and_request_records_in_acceptance_order(self, tmp_path):
        engine = ServeEngine(
            N_NODES,
            "rotor-push",
            log=IngestWriter(tmp_path / "log", {"n_nodes": N_NODES}),
        )
        engine.bind("alpha")
        engine.submit("alpha", [1, 2])
        engine.bind("beta")
        engine.submit("beta", [3])
        engine.submit("alpha", [4])
        engine.log.close()
        log = read_ingest_log(tmp_path / "log")
        assert log.records == [
            {"type": "bind", "source": "alpha", "source_id": 0},
            {"type": "request", "source_id": 0, "destinations": [1, 2]},
            {"type": "bind", "source": "beta", "source_id": 1},
            {"type": "request", "source_id": 1, "destinations": [3]},
            {"type": "request", "source_id": 0, "destinations": [4]},
        ]


class TestReporting:
    def test_cost_table_skips_silent_sources_and_totals(self):
        engine = ServeEngine(N_NODES, "rotor-push")
        engine.bind("served")
        engine.bind("silent")
        outcome = engine.submit("served", [5, 6, 7])
        table = engine.cost_table()
        assert table.name == "serve"
        assert table.columns == REPLAY_TABLE_COLUMNS
        assert [row["source"] for row in table.rows] == ["served", "total"]
        assert table.rows[0]["total_access_cost"] == outcome["access_cost"]
        assert table.rows[1]["n_requests"] == 3

    def test_stats_totals_agree_with_per_source_rows(self):
        engine = ServeEngine(N_NODES, "rotor-push")
        for index, source in enumerate(["a", "b"]):
            engine.bind(source)
            for batch in batches_for(index, n_batches=4):
                engine.submit(source, batch)
        stats = engine.stats()
        assert stats["n_sources"] == 2
        assert stats["n_requests"] == engine.n_requests == 40
        assert stats["total_access_cost"] == sum(
            row["total_access_cost"] for row in stats["sources"]
        )
        assert all(row["batches"] == 4 for row in stats["sources"])
