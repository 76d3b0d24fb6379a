"""ResultStore: round-trips, atomicity, corruption handling, content keys.

The checkpoint store's contract: entries round-trip results exactly, a
corrupted/truncated/alien entry is a logged *miss* (never a crash), and the
content keys hash exactly the result-determining payload fields — throughput
knobs (``chunk_size``, ``n_jobs``) never split the cache.
"""

from __future__ import annotations

import json
import logging

import pytest

import repro
from repro.plans import RunConfig, dumps, load_golden_plan, loads, plan_with_overrides
from repro.resilience import ResultStore, payload_key, plan_hash
from repro.resilience.store import result_from_dict, result_to_dict
from repro.sim.engine import simulate
from repro.sim.runner import TrialRunner
from repro.workloads.spec import WorkloadSpec


def small_result(keep_records: bool = False):
    return simulate(
        "rotor-push",
        [1, 3, 5, 3, 1, 7, 2],
        n_nodes=15,
        placement_seed=3,
        seed=4,
        keep_records=keep_records,
        metadata={"trial": 0},
    )


def runner_payloads(**kwargs):
    config_kwargs = dict(n_requests=50, n_trials=2, base_seed=9)
    config_kwargs.update(kwargs)
    runner = TrialRunner(n_nodes=15, config=RunConfig(**config_kwargs))
    return runner.build_payloads(
        ["rotor-push", "random-push"],
        runner.trial_sources(
            lambda seed: WorkloadSpec.create("uniform", n_elements=15, seed=seed)
        ),
    )


class TestRoundTrip:
    @pytest.mark.parametrize("keep_records", [False, True])
    def test_result_document_roundtrip(self, keep_records):
        result = small_result(keep_records)
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.algorithm == result.algorithm
        assert rebuilt.total_access_cost == result.total_access_cost
        assert rebuilt.total_adjustment_cost == result.total_adjustment_cost
        assert rebuilt.metadata == result.metadata
        assert len(rebuilt.per_request) == len(result.per_request)
        for mine, theirs in zip(rebuilt.per_request, result.per_request):
            assert mine == theirs

    def test_store_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        result = small_result(keep_records=True)
        key = "ab" + "0" * 62
        assert key not in store
        assert store.get(key) is None
        path = store.put(key, result)
        assert path.is_file()
        assert key in store
        assert store.keys() == [key]
        assert len(store) == 1
        rebuilt = store.get(key)
        assert rebuilt.total_access_cost == result.total_access_cost


class TestCorruption:
    def make_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" + "1" * 62
        path = store.put(key, small_result())
        return store, key, path

    def test_truncated_entry_is_a_logged_miss(self, tmp_path, caplog):
        store, key, path = self.make_entry(tmp_path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            assert store.get(key) is None
        assert any("treating as missing" in record.message for record in caplog.records)

    def test_bitflipped_body_is_a_miss(self, tmp_path):
        store, key, path = self.make_entry(tmp_path)
        raw = path.read_text()
        path.write_text(raw.replace('"total_access_cost":', '"total_access_cost":9'))
        assert store.get(key) is None

    def test_alien_file_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ef" + "2" * 62
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("this was never a checkpoint entry")
        assert store.get(key) is None

    def test_wrong_format_version_is_a_miss(self, tmp_path):
        store, key, path = self.make_entry(tmp_path)
        header, _, body = path.read_text().partition("\n")
        parts = header.split(" ")
        parts[1] = "999"
        path.write_text(" ".join(parts) + "\n" + body)
        assert store.get(key) is None

    def test_reput_heals_a_corrupt_entry(self, tmp_path):
        store, key, path = self.make_entry(tmp_path)
        path.write_text("garbage")
        assert store.get(key) is None
        store.put(key, small_result())
        assert store.get(key) is not None


class TestPayloadKey:
    def test_key_ignores_throughput_knobs(self):
        base = runner_payloads()
        for variant in (
            runner_payloads(chunk_size=7),
            runner_payloads(n_jobs=4),
            runner_payloads(max_retries=9, cache_dir="elsewhere"),
            runner_payloads(executor="tcp://10.0.0.1:7777"),
        ):
            assert [payload_key(p) for p in base] == [payload_key(p) for p in variant]

    def test_key_tracks_result_determining_fields(self):
        base = [payload_key(p) for p in runner_payloads()]
        assert len(set(base)) == len(base)  # every (trial, algorithm) distinct
        reseeded = [payload_key(p) for p in runner_payloads(base_seed=10)]
        assert set(base).isdisjoint(reseeded)
        resized = [payload_key(p) for p in runner_payloads(n_requests=51)]
        assert set(base).isdisjoint(resized)


class TestMaintenance:
    def seeded_store(self, tmp_path, n: int = 3):
        store = ResultStore(tmp_path)
        keys = [f"{index:02x}" + "9" * 62 for index in range(n)]
        for key in keys:
            store.put(key, small_result())
        return store, keys

    def test_stats_counts_entries_bytes_and_orphans(self, tmp_path):
        store, keys = self.seeded_store(tmp_path)
        stats = store.stats()
        assert stats["entries"] == len(keys)
        assert stats["bytes"] > 0
        assert stats["orphans"] == 0
        # a temp file left behind by a crashed write shows up as an orphan
        (store.path_for(keys[0]).parent / ".dead0000-x.tmp").write_text("half")
        assert store.stats()["orphans"] == 1
        # an empty/missing store is all zeroes, not an error
        assert ResultStore(tmp_path / "nowhere").stats() == {
            "entries": 0,
            "bytes": 0,
            "orphans": 0,
        }

    def test_verify_reports_corrupt_entries_without_deleting(self, tmp_path):
        store, keys = self.seeded_store(tmp_path)
        store.path_for(keys[1]).write_text("garbage")
        report = store.verify()
        assert sorted(report["ok"]) == sorted([keys[0], keys[2]])
        assert report["corrupt"] == [keys[1]]
        assert store.path_for(keys[1]).is_file()  # reported, not removed

    def test_prune_drops_corrupt_entries_and_orphans_only(self, tmp_path):
        store, keys = self.seeded_store(tmp_path)
        store.path_for(keys[2]).write_text("garbage")
        orphan = store.path_for(keys[0]).parent / ".dead0000-x.tmp"
        orphan.write_text("half")
        assert store.prune() == {"corrupt": 1, "orphans": 1}
        assert not orphan.exists()
        assert not store.path_for(keys[2]).exists()
        # healthy entries are untouched and still served
        assert store.get(keys[0]) is not None
        assert store.get(keys[1]) is not None
        assert store.prune() == {"corrupt": 0, "orphans": 0}


class TestPlanHash:
    def test_hash_ignores_throughput_and_resilience_knobs(self):
        plan = load_golden_plan("smoke")
        assert plan_hash(plan) == plan_hash(
            plan_with_overrides(
                plan, n_jobs=8, chunk_size=64, cache_dir="x",
                max_retries=9, executor="tcp://10.0.0.1:7777",
            )
        )

    def test_hash_tracks_run_content(self):
        plan = load_golden_plan("smoke")
        assert plan_hash(plan) != plan_hash(plan_with_overrides(plan, n_trials=7))
        assert plan_hash(plan) != plan_hash(plan_with_overrides(plan, n_requests=7))


#: Content keys of the ``smoke`` golden plan, recorded when plan configs still
#: carried a ``backend`` field (scrubbed from both hashes).  Dropping the field
#: must not move them, or every existing ``--cache-dir`` would go cold.
SMOKE_PLAN_HASH = "25f40a2b29bf424a3a9600cd8baa659f466b3fa842b8bd8f42cdc6c30a583e17"
SMOKE_PAYLOAD_KEYS = [
    (0, "rotor-push", "d7fb888c8bfbd35fdc2c1736b55b2f799542081e19812315455fb1293c52fa28"),
    (0, "random-push", "1f2e9ea873d02c573d09b7b8196e6673604c753e6198877910a0511489e15711"),
    (0, "static-oblivious", "e0870f5c1b31ba3b8361679d77ec04c3ea8bb3a3d6e5376c9419a4776b08c80a"),
    (1, "rotor-push", "d65ee04e3a13e5803978b595412e90a6b5b58f1dfb0e21740ee7674c31dbeb9d"),
    (1, "random-push", "7f72a5a49bad00551a1864b256d1cb248a7e7642851f6e0fd901a9779b4d868e"),
    (1, "static-oblivious", "410e0cb4e045e35b8bf6689ee2034921f2872da20bcf9d802bcfde6e1943a03a"),
]


class TestCacheKeyPins:
    def test_smoke_plan_hash_is_pinned(self):
        assert plan_hash(load_golden_plan("smoke")) == SMOKE_PLAN_HASH

    def test_smoke_payload_keys_are_pinned(self):
        plan = load_golden_plan("smoke")
        runner = TrialRunner(n_nodes=plan.n_nodes, config=plan.config)
        sources = runner.trial_sources(plan.workload.with_seed)
        payloads = runner.build_payloads(plan.algorithm_names(), sources)
        keys = [(p.trial, p.algorithm_name, payload_key(p)) for p in payloads]
        assert keys == SMOKE_PAYLOAD_KEYS

    def test_plan_document_with_backend_key_loads_with_same_hash(self):
        plan = load_golden_plan("smoke")
        document = json.loads(dumps(plan))
        assert "backend" not in document["config"]
        document["config"]["backend"] = "python"
        loaded = loads(json.dumps(document))
        assert loaded == plan
        assert plan_hash(loaded) == plan_hash(plan) == SMOKE_PLAN_HASH
