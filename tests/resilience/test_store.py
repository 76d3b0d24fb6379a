"""ResultStore: round-trips, segments, corruption handling, content keys.

The checkpoint store's contract: records round-trip results exactly, a
corrupted/truncated/torn/alien record is a logged *miss* (never a crash),
concurrent writers never share a segment, and the content keys hash exactly
the result-determining payload fields — throughput knobs (``n_jobs``,
``max_retries``, ``cache_dir``, ``executor``) never split the cache.
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
from pathlib import Path

import pytest

import repro
from repro.plans import (
    RunConfig,
    dumps,
    load_golden_plan,
    loads,
    plan_with_overrides,
    validate_golden_plans,
)
from repro.algorithms import cascade_kernel
from repro.algorithms.base import RunResult
from repro.core.cost import RequestRecordColumns
from repro.plans.execute import compile_plan
from repro.resilience import ResultStore, payload_key, plan_hash
from repro.resilience.store import result_from_dict, result_to_dict
from repro.sim import runner
from repro.sim.engine import simulate
from repro.sim.runner import AdversarySource, TrialPayload, TrialRunner
from repro.workloads.adversarial import AdversarySpec
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


def write_records(root, keys, keep_records: bool = False) -> Path:
    """Put ``keys`` through one store instance, then let it go (closing its
    segment and releasing the writer lock); return the segment."""
    store = ResultStore(root)
    segments = {store.put(key, small_result(keep_records)) for key in keys}
    (segment,) = segments
    return segment


def append_torn_record(segment: Path) -> None:
    """Append the first half of a record, as a writer killed mid-write leaves it."""
    scratch = segment.parent / "scratch"
    record = write_records(scratch, ["ee" + "5" * 62]).read_bytes()
    with open(segment, "ab") as handle:
        handle.write(record[: len(record) // 2])


def _put_in_child(root: str, prefix: str, count: int) -> None:
    store = ResultStore(root)
    for index in range(count):
        store.put(f"{prefix}{index:062x}", small_result())


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

    @pytest.mark.parametrize("path", ["seeded", "tree", "adversary", "empty"])
    def test_records_roundtrip_as_equal_columns(self, monkeypatch, path):
        sequence = [(7 * index) % 255 for index in range(600)]
        if path == "tree":
            monkeypatch.setattr(cascade_kernel, "load", lambda: None)
        if path in ("seeded", "tree"):
            result = simulate("random-push", sequence, n_nodes=255, placement_seed=3, seed=4)
        elif path == "adversary":
            result = runner._execute_trial_body(
                TrialPayload(
                    algorithm="rotor-push",
                    source=AdversarySource(
                        AdversarySpec.create("rotor-working-set", depth=4), 200
                    ),
                    n_nodes=31,
                    placement_seed=None,
                    algorithm_seed=None,
                    keep_records=True,
                    trial=0,
                )
            )
        else:
            result = RunResult("rotor-push", 255, 0, 0, 0)
        rebuilt = result_from_dict(result_to_dict(result))
        assert type(result.per_request) is type(rebuilt.per_request) is RequestRecordColumns
        assert len(rebuilt.per_request) == (0 if path == "empty" else result.n_requests)
        for column in ("elements", "levels", "swaps"):
            assert getattr(rebuilt.per_request, column) == getattr(result.per_request, column)
        assert rebuilt == result

    def test_store_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        result = small_result(keep_records=True)
        key = "ab" + "0" * 62
        assert key not in store
        assert store.get(key) is None
        path = store.put(key, result)
        assert path.is_file() and path.parent == tmp_path
        assert path.name.startswith("seg-") and path.suffix == ".log"
        assert key in store
        assert store.keys() == [key]
        assert len(store) == 1
        rebuilt = store.get(key)
        assert rebuilt.total_access_cost == result.total_access_cost
        # a fresh instance finds the record by scanning the segment
        assert ResultStore(tmp_path).get(key).to_dict() == rebuilt.to_dict()

    def test_record_format(self, tmp_path):
        key = "ab" + "1" * 62
        header, body, tail = write_records(tmp_path, [key]).read_bytes().split(b"\n")
        magic, version, stored_key, length, checksum = header.decode().split(" ")
        assert (magic, version, stored_key) == ("repro-result", "2", key)
        assert int(length) == len(body) and tail == b""
        assert checksum == hashlib.sha256(body).hexdigest()

    def test_one_segment_per_store_instance(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [f"{index:02x}" + "3" * 62 for index in range(5)]
        assert len({store.put(key, small_result()) for key in keys}) == 1
        write_records(tmp_path, ["ff" + "3" * 62])
        assert len(list(tmp_path.glob("seg-*.log"))) == 2
        assert len(ResultStore(tmp_path)) == 6


class TestCorruption:
    def make_entry(self, tmp_path):
        key = "cd" + "1" * 62
        return ResultStore(tmp_path), key, write_records(tmp_path, [key])

    def test_truncated_entry_is_a_logged_miss(self, tmp_path, caplog):
        store, key, path = self.make_entry(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            assert store.get(key) is None
        assert any("treating" in record.message for record in caplog.records)

    def test_bitflipped_body_is_a_miss(self, tmp_path, corrupt_record, caplog):
        store, key, path = self.make_entry(tmp_path)
        corrupt_record(tmp_path, key)
        assert key in store  # the record is whole; only its checksum fails
        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            assert store.get(key) is None
        assert any("checksum mismatch" in record.message for record in caplog.records)

    def test_resized_body_is_a_miss(self, tmp_path):
        store, key, path = self.make_entry(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"total_access_cost":', b'"total_access_cost":9'))
        assert store.get(key) is None

    def test_alien_file_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ef" + "2" * 62
        (tmp_path / "seg-alien.log").write_text(
            f"this was never a checkpoint entry {key}\n{key}\n"
        )
        assert store.get(key) is None
        assert len(store) == 0

    def test_wrong_format_version_is_a_miss(self, tmp_path):
        store, key, path = self.make_entry(tmp_path)
        header, _, body = path.read_bytes().partition(b"\n")
        parts = header.split(b" ")
        parts[1] = b"999"
        path.write_bytes(b" ".join(parts) + b"\n" + body)
        assert store.get(key) is None

    def test_reput_heals_a_corrupt_entry(self, tmp_path, corrupt_record):
        _store, key, path = self.make_entry(tmp_path)
        corrupt_record(tmp_path, key)
        store = ResultStore(tmp_path)
        assert store.get(key) is None
        store.put(key, small_result())
        assert store.get(key) is not None
        # a later valid record wins for every reader, not only the writer
        assert ResultStore(tmp_path).get(key) is not None

    def test_torn_tail_is_a_logged_miss(self, tmp_path, caplog):
        keys = ["a0" + "4" * 62, "a1" + "4" * 62]
        segment = write_records(tmp_path, keys[:1])
        torn = write_records(tmp_path / "other", keys[1:]).read_bytes()
        with open(segment, "ab") as handle:
            handle.write(torn[:-10])
        store = ResultStore(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            assert store.get(keys[1]) is None
        assert any("torn" in record.message for record in caplog.records)
        assert store.get(keys[0]) is not None
        assert store.stats()["orphans"] == 1

    def test_damage_does_not_hide_later_records(self, tmp_path):
        keys = [f"b{index}" + "6" * 62 for index in range(3)]
        segment = write_records(tmp_path, keys)
        lines = segment.read_bytes().split(b"\n")
        lines[2] = b"garbage header"  # the second record's header
        segment.write_bytes(b"\n".join(lines))
        store = ResultStore(tmp_path)
        assert store.get(keys[0]) is not None
        assert store.get(keys[1]) is None
        assert store.get(keys[2]) is not None

    def test_legacy_files_are_misses(self, tmp_path):
        key = "ab" + "7" * 62
        body = json.dumps(result_to_dict(small_result()))
        legacy = tmp_path / key[:2] / f"{key}.json"
        legacy.parent.mkdir()
        legacy.write_text(
            f"repro-result 1 {len(body)} {hashlib.sha256(body.encode()).hexdigest()}\n{body}"
        )
        store = ResultStore(tmp_path)
        assert key not in store and store.get(key) is None
        assert store.stats() == {"entries": 0, "bytes": 0, "orphans": 1}


class TestConcurrency:
    def test_two_concurrent_writers_on_one_directory(self, tmp_path):
        context = multiprocessing.get_context("fork")
        children = [
            context.Process(target=_put_in_child, args=(str(tmp_path), prefix, 40))
            for prefix in ("a", "b")
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=60)
            assert child.exitcode == 0
        assert len(list(tmp_path.glob("seg-*.log"))) == 2
        store = ResultStore(tmp_path)
        assert len(store) == 80
        assert store.verify()["corrupt"] == []
        assert store.stats()["orphans"] == 0

    def test_interleaved_writers_in_one_process(self, tmp_path):
        first, second = ResultStore(tmp_path), ResultStore(tmp_path)
        keys = [f"{index:02x}" + "8" * 62 for index in range(10)]
        for index, key in enumerate(keys):
            (first if index % 2 else second).put(key, small_result())
        assert first.get(keys[1]) is not None and second.get(keys[0]) is not None
        assert ResultStore(tmp_path).keys() == keys

    def test_prune_skips_a_segment_held_by_a_live_writer(self, tmp_path, corrupt_record):
        writer = ResultStore(tmp_path)
        keys = ["c0" + "9" * 62, "c1" + "9" * 62]
        for key in keys:
            segment = writer.put(key, small_result())
        corrupt_record(tmp_path, keys[1])
        before = segment.read_bytes()
        assert ResultStore(tmp_path).prune() == {"corrupt": 0, "orphans": 0}
        assert segment.read_bytes() == before
        del writer  # closing the segment releases the lock
        assert ResultStore(tmp_path).prune() == {"corrupt": 1, "orphans": 0}
        store = ResultStore(tmp_path)
        assert store.keys() == keys[:1] and store.get(keys[0]) is not None

    def test_index_holds_no_bodies(self, tmp_path):
        keys = [f"{index:064x}" for index in range(300)]
        segment = write_records(tmp_path, keys, keep_records=True)
        store = ResultStore(tmp_path)
        assert len(store) == 300
        for key in keys:
            where, offset, length, checksum = store._index[key]
            assert where == segment and type(offset) is int and type(length) is int
            assert isinstance(checksum, str) and len(checksum) == 64
        assert all(length > 100 for _, _, length, _ in store._index.values())
        assert store.get(keys[-1]) is not None


class TestPayloadKey:
    def test_key_ignores_throughput_knobs(self):
        base = runner_payloads()
        for variant in (
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
        keys = [f"{index:02x}" + "9" * 62 for index in range(n)]
        segment = write_records(tmp_path, keys)
        return ResultStore(tmp_path), keys, segment

    def test_stats_counts_entries_bytes_and_orphans(self, tmp_path):
        store, keys, segment = self.seeded_store(tmp_path)
        stats = store.stats()
        assert stats["entries"] == len(keys)
        assert stats["bytes"] == segment.stat().st_size
        assert stats["orphans"] == 0
        # a record torn by a crashed write shows up as an orphan
        append_torn_record(segment)
        assert store.stats()["orphans"] == 1
        # and so does a temp file of the format-1 layout
        (tmp_path / keys[0][:2]).mkdir()
        (tmp_path / keys[0][:2] / ".dead0000-x.tmp").write_text("half")
        assert store.stats()["orphans"] == 2
        # an empty/missing store is all zeroes, not an error
        assert ResultStore(tmp_path / "nowhere").stats() == {
            "entries": 0,
            "bytes": 0,
            "orphans": 0,
        }

    def test_verify_reports_corrupt_entries_without_deleting(self, tmp_path, corrupt_record):
        store, keys, segment = self.seeded_store(tmp_path)
        corrupt_record(tmp_path, keys[1])
        before = segment.read_bytes()
        report = store.verify()
        assert sorted(report["ok"]) == sorted([keys[0], keys[2]])
        assert report["corrupt"] == [keys[1]]
        assert segment.read_bytes() == before  # reported, not removed

    def test_prune_drops_corrupt_entries_and_orphans_only(self, tmp_path, corrupt_record):
        store, keys, segment = self.seeded_store(tmp_path)
        corrupt_record(tmp_path, keys[2])
        append_torn_record(segment)
        legacy = tmp_path / keys[0][:2] / f"{keys[0]}.json"
        legacy.parent.mkdir()
        legacy.write_text("repro-result 1 4 0\nhalf")
        orphan = legacy.parent / ".dead0000-x.tmp"
        orphan.write_text("half")
        assert store.prune() == {"corrupt": 1, "orphans": 3}
        assert not legacy.parent.exists()
        assert list(tmp_path.glob(".seg-*.tmp")) == []
        # healthy entries are untouched and still served
        assert store.get(keys[0]) is not None
        assert store.get(keys[1]) is not None
        assert store.keys() == keys[:2]
        assert store.prune() == {"corrupt": 0, "orphans": 0}

    def test_prune_deletes_a_segment_with_nothing_valid(self, tmp_path):
        (tmp_path / "seg-alien.log").write_text("never a record\n")
        assert ResultStore(tmp_path).prune() == {"corrupt": 1, "orphans": 0}
        assert list(tmp_path.iterdir()) == []


class TestPlanHash:
    def test_hash_ignores_throughput_and_resilience_knobs(self):
        plan = load_golden_plan("smoke")
        assert plan_hash(plan) == plan_hash(
            plan_with_overrides(
                plan, n_jobs=8, cache_dir="x",
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


#: sha256 over the newline-joined ordered ``payload_key`` list of every
#: golden plan at ``n_trials=1, n_requests=200`` (and the payload count):
#: compile must keep emitting the same payloads in the same order, so
#: existing ``--cache-dir`` stores stay warm.  ``q5`` was re-pinned when its
#: books began to ship as ``corpus`` recipe specs instead of materialised
#: sequences (same results, new keys); ``table1`` runs no payloads.
GOLDEN_PAYLOAD_KEY_PINS = {
    "adversarial": (9, "7eaaea216d506144dce0ce0dabaaea854f3d8a39e5dc43179dc7f9b81f5aec71"),
    "corpus": (18, "187e4d5037ee71b3754e3b1d5e91bdd7402033bb716b15857b9fb7e6127ea2d2"),
    "datacenter": (3, "a3461612cfd78d4602e1b15edeef280eed518d06fc61b94b9adbc248f8a69a5c"),
    "multisource": (2, "e6dffcd1a0a78fd05b136bcc0f8028d13b353d3238d64fc29336f6925319b80b"),
    "q1": (20, "9f5fa524613bc7d32a33656cd5d32006db111216fad9b23f7772c3277adf5070"),
    "q2": (42, "834a599667464668c88299fe5c615fe7bc4770e4e9777c00651442930fc4c427"),
    "q3": (30, "0deb5fd44660700ff12bec1a2e46beec4a01fb962de8477823e7880aae3170db"),
    "q4": (54, "c415838a6a73ee9e7787efab7d3fe74a0cac102f1cb395361d17b2b64caf4c20"),
    "q5": (30, "dc226ef0a163f42ea7065feb9d74354caa3d5d27e2388e0e7ff529ffbbb2ec07"),
    "smoke": (3, "1eca4fe075ae3fbed6f120dbda4f70825db2d7f704f3ad9f8c350be2441ff53c"),
    "table1": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


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

    @pytest.mark.parametrize("name", sorted(GOLDEN_PAYLOAD_KEY_PINS))
    def test_golden_plan_payload_keys_are_pinned(self, name):
        plan = plan_with_overrides(load_golden_plan(name), n_trials=1, n_requests=200)
        keys = [payload_key(payload) for payload in compile_plan(plan).payloads]
        digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
        assert (len(keys), digest) == GOLDEN_PAYLOAD_KEY_PINS[name]

    def test_every_golden_plan_is_pinned(self):
        assert sorted(GOLDEN_PAYLOAD_KEY_PINS) == validate_golden_plans()

    def test_plan_document_with_backend_key_loads_with_same_hash(self):
        plan = load_golden_plan("smoke")
        document = json.loads(dumps(plan))
        assert "backend" not in document["config"]
        document["config"]["backend"] = "python"
        loaded = loads(json.dumps(document))
        assert loaded == plan
        assert plan_hash(loaded) == plan_hash(plan) == SMOKE_PLAN_HASH
