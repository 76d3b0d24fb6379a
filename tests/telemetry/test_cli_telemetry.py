"""CLI observability surface: ``repro metrics``, cache JSON, executor options."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main, resolve_run_plan
from repro.dist.protocol import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_LEASE_TIMEOUT,
    ExecutorSpec,
)
from repro.dist.worker import WorkerServer
from repro.telemetry.export import MetricsHTTPServer
from repro.telemetry.registry import MetricsRegistry


class TestExecutorQuery:
    """``?lease=`` and ``?heartbeat=`` are the one way to set both options."""

    def test_query_reaches_the_plan(self):
        args = build_parser().parse_args(
            ["run", "smoke", "--executor", "tcp://h:1?lease=45&heartbeat=2"]
        )
        spec = ExecutorSpec.parse(resolve_run_plan(args).config.executor)
        assert (spec.lease_timeout, spec.heartbeat_interval) == (45.0, 2.0)

    def test_passthrough_without_query(self):
        args = build_parser().parse_args(["run", "smoke", "--executor", "tcp://h:1"])
        executor = resolve_run_plan(args).config.executor
        assert executor == "tcp://h:1"
        spec = ExecutorSpec.parse(executor)
        assert spec.lease_timeout == DEFAULT_LEASE_TIMEOUT
        assert spec.heartbeat_interval == DEFAULT_HEARTBEAT_INTERVAL

    def test_untouched_query_values_survive(self):
        spec = ExecutorSpec.parse("tcp://h:1?heartbeat=3")
        assert (spec.lease_timeout, spec.heartbeat_interval) == (DEFAULT_LEASE_TIMEOUT, 3.0)
        spec = ExecutorSpec.parse("tcp://h:1?lease=45")
        assert (spec.lease_timeout, spec.heartbeat_interval) == (45.0, DEFAULT_HEARTBEAT_INTERVAL)

    @pytest.mark.parametrize("option", ["lease", "heartbeat"])
    @pytest.mark.parametrize("value", ["0", "-2", "nope"])
    def test_bad_values_fail_cleanly(self, option, value, capsys):
        executor = f"tcp://127.0.0.1:1?{option}={value}"
        assert main(["run", "smoke", "--executor", executor]) == 2
        assert option in capsys.readouterr().err


class TestWorkerFlags:
    def test_parser_accepts_metrics(self):
        args = build_parser().parse_args(["worker", "--metrics", "tcp://127.0.0.1:0"])
        assert args.metrics == "tcp://127.0.0.1:0"


class TestServeFlags:
    def test_parser_accepts_metrics_options(self):
        args = build_parser().parse_args(
            ["serve", "--metrics", "tcp://127.0.0.1:0",
             "--metrics-snapshot-interval", "2.5"]
        )
        assert args.metrics == "tcp://127.0.0.1:0"
        assert args.metrics_snapshot_interval == 2.5

    def test_bad_interval_rejected_at_parse(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--metrics-snapshot-interval", "0"])
        assert "--metrics-snapshot-interval" in capsys.readouterr().err


class TestCacheStatsJson:
    def test_json_document_shape(self, tmp_path, capsys):
        assert main(["cache", "stats", "--json", "--cache-dir", str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"cache_dir", "entries", "bytes", "orphans", "corrupt"}
        assert doc["entries"] == 0
        assert doc["corrupt"] == 0

    def test_human_output_unchanged_without_flag(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "entries:" in capsys.readouterr().out


class TestMetricsCommand:
    def test_scrapes_http_endpoint(self, capsys):
        registry = MetricsRegistry()
        registry.counter("demo_total", "Demo.").inc(7)
        endpoint = MetricsHTTPServer("tcp://127.0.0.1:0", registry=registry).start()
        try:
            assert main(["metrics", endpoint.url]) == 0
        finally:
            endpoint.stop()
        out = capsys.readouterr().out
        assert "demo_total 7" in out

    def test_scrapes_worker_frame_and_json(self, capsys):
        worker = WorkerServer(registry=MetricsRegistry()).start()
        try:
            address = f"tcp://{worker.host}:{worker.port}"
            assert main(["metrics", address]) == 0
            text = capsys.readouterr().out
            assert "repro_worker_sessions_total" in text
            assert main(["metrics", address, "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert "counters" in doc["metrics"]
            assert main(["metrics", address, "--trace"]) == 0
            assert "# trace:" in capsys.readouterr().out
        finally:
            worker.stop()

    def test_unreachable_target_fails_cleanly(self, capsys):
        assert main(["metrics", "tcp://127.0.0.1:1"]) == 2
        assert "repro metrics:" in capsys.readouterr().err
