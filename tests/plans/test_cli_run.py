"""Tests for the CLI ``run`` subcommand and its override precedence."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main, resolve_run_plan
from repro.exceptions import PlanError
from repro.plans import RunConfig, TrialPlan, dump
from repro.workloads.spec import WorkloadSpec


def small_plan(**config_kwargs) -> TrialPlan:
    return TrialPlan(
        name="cli-test",
        n_nodes=31,
        workload=WorkloadSpec.create("uniform", n_elements=31),
        algorithms=("rotor-push", "static-oblivious"),
        config=RunConfig(n_requests=200, n_trials=2, **config_kwargs),
    )


class TestParser:
    def test_parser_knows_run(self):
        args = build_parser().parse_args(["run", "smoke", "--jobs", "2"])
        assert args.command == "run" and args.plan == "smoke" and args.jobs == 2

    def test_run_rejects_zero_jobs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "smoke", "--jobs", "0"])

    @pytest.mark.parametrize(
        "command",
        [["demo"], ["run", "smoke"], ["serve"], ["replay", "log"], ["report"]],
    )
    def test_backend_flag_is_gone(self, command):
        for flag in (["--backend", "array"], ["--chunk-size", "64"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args([*command, *flag])


class TestResolution:
    def test_resolves_plan_file(self, tmp_path):
        path = tmp_path / "plan.json"
        dump(small_plan(), path)
        args = build_parser().parse_args(["run", str(path)])
        plan = resolve_run_plan(args)
        assert plan == small_plan()

    def test_resolves_golden_name(self):
        args = build_parser().parse_args(["run", "smoke"])
        plan = resolve_run_plan(args)
        assert plan.name == "smoke"

    def test_unknown_plan_errors_with_golden_listing(self):
        args = build_parser().parse_args(["run", "no-such-plan.json"])
        with pytest.raises(PlanError) as excinfo:
            resolve_run_plan(args)
        assert "smoke" in str(excinfo.value)

    def test_main_turns_any_repro_error_into_clean_exit(self, tmp_path, capsys):
        """Unknown names, bad kinds etc. must print one message, not a
        traceback — whatever exception family they raise."""
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"plan": "trial", "name": "x", "n_nodes": 31,'
            ' "workload": {"kind": "zipff", "seed": null, "params": {"n_elements": 31}},'
            ' "algorithms": [{"name": "rotor-push", "params": {}}],'
            ' "config": {"n_requests": 10, "n_trials": 1}}'
        )
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "repro run:" in err and "zipff" in err


class TestScale:
    def test_scale_rebuilds_the_experiment(self):
        from repro.experiments import build_q2_plan

        args = build_parser().parse_args(["run", "q2", "--scale", "small"])
        assert resolve_run_plan(args) == build_q2_plan("small")

    def test_tiny_scale_prints_the_golden_run(self, capsys):
        assert main(["run", "q2"]) == 0
        golden = capsys.readouterr().out
        assert main(["run", "q2", "--scale", "tiny"]) == 0
        assert capsys.readouterr().out == golden

    def test_scale_overrides_still_apply(self):
        args = build_parser().parse_args(
            ["run", "q5", "--scale", "small", "--jobs", "3", "--max-retries", "5"]
        )
        plan = resolve_run_plan(args)
        fig7 = dict(plan.stages)["fig7"]
        assert (fig7.config.n_jobs, fig7.config.max_retries) == (3, 5)

    @pytest.mark.parametrize("name", ["smoke", "table1", "no-such-plan"])
    def test_scale_needs_a_plan_builder(self, name, capsys):
        assert main(["run", name, "--scale", "tiny"]) == 2
        assert "--scale" in capsys.readouterr().err

    def test_scale_rejects_plan_files(self, tmp_path, capsys):
        path = tmp_path / "q2"
        dump(small_plan(), path)
        assert main(["run", str(path), "--scale", "tiny"]) == 2
        assert "--scale" in capsys.readouterr().err

    def test_unknown_scale_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "q2", "--scale", "galactic"])


class TestOverridePrecedence:
    def test_cli_flags_override_plan_document(self, tmp_path):
        path = tmp_path / "plan.json"
        dump(small_plan(n_jobs=1, max_retries=4), path)
        args = build_parser().parse_args(
            ["run", str(path), "--jobs", "3", "--max-retries", "1"]
        )
        plan = resolve_run_plan(args)
        assert plan.config.n_jobs == 3
        assert plan.config.max_retries == 1

    def test_absent_flags_keep_plan_values(self, tmp_path):
        path = tmp_path / "plan.json"
        dump(small_plan(n_jobs=2, max_retries=4), path)
        args = build_parser().parse_args(["run", str(path)])
        plan = resolve_run_plan(args)
        assert plan.config.n_jobs == 2
        assert plan.config.max_retries == 4

    def test_partial_override(self, tmp_path):
        path = tmp_path / "plan.json"
        dump(small_plan(n_jobs=2, max_retries=4), path)
        args = build_parser().parse_args(["run", str(path), "--jobs", "5"])
        plan = resolve_run_plan(args)
        assert plan.config.n_jobs == 5
        assert plan.config.max_retries == 4  # untouched

    def test_trials_and_requests_override_plan_document(self, tmp_path):
        path = tmp_path / "plan.json"
        dump(small_plan(), path)  # document says 200 requests, 2 trials
        args = build_parser().parse_args(
            ["run", str(path), "--trials", "1", "--requests", "50"]
        )
        plan = resolve_run_plan(args)
        assert plan.config.n_trials == 1
        assert plan.config.n_requests == 50

    def test_absent_trials_and_requests_keep_plan_values(self, tmp_path):
        path = tmp_path / "plan.json"
        dump(small_plan(), path)
        plan = resolve_run_plan(build_parser().parse_args(["run", str(path)]))
        assert plan.config.n_trials == 2
        assert plan.config.n_requests == 200

    def test_trials_and_requests_recurse_into_experiment_stages(self):
        from repro.plans import ExperimentPlan

        args = build_parser().parse_args(
            ["run", "q1", "--trials", "1", "--requests", "11"]
        )
        plan = resolve_run_plan(args)

        def leaf_configs(node):
            if isinstance(node, ExperimentPlan):
                for _key, sub in node.stages:
                    yield from leaf_configs(sub)
            else:
                yield node.config

        configs = list(leaf_configs(plan))
        assert configs  # q1 is an experiment over sweep stages
        assert all(config.n_trials == 1 for config in configs)
        assert all(config.n_requests == 11 for config in configs)

    def test_bad_trials_and_requests_rejected_by_the_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "smoke", "--trials", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "smoke", "--requests", "-1"])

    def test_resilience_flags_override_plan_document(self, tmp_path):
        path = tmp_path / "plan.json"
        dump(small_plan(max_retries=1, cache_dir="from-plan"), path)
        args = build_parser().parse_args(
            [
                "run",
                str(path),
                "--max-retries",
                "5",
                "--cache-dir",
                "from-cli",
                "--resume",
            ]
        )
        plan = resolve_run_plan(args)
        assert plan.config.max_retries == 5
        assert plan.config.cache_dir == "from-cli"
        assert args.resume is True

    def test_absent_resilience_flags_keep_plan_values(self, tmp_path):
        path = tmp_path / "plan.json"
        dump(small_plan(max_retries=7, cache_dir="keep-me"), path)
        args = build_parser().parse_args(["run", str(path)])
        plan = resolve_run_plan(args)
        assert plan.config.max_retries == 7
        assert plan.config.cache_dir == "keep-me"
        assert args.resume is False

    def test_resilience_flags_recurse_into_experiment_stages(self):
        from repro.plans import ExperimentPlan

        args = build_parser().parse_args(
            ["run", "q1", "--max-retries", "3", "--cache-dir", "deep"]
        )
        plan = resolve_run_plan(args)

        def leaf_configs(node):
            if isinstance(node, ExperimentPlan):
                for _key, sub in node.stages:
                    yield from leaf_configs(sub)
            else:
                yield node.config

        configs = list(leaf_configs(plan))
        assert configs
        assert all(config.max_retries == 3 for config in configs)
        assert all(config.cache_dir == "deep" for config in configs)

    def test_bad_max_retries_rejected_by_the_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "smoke", "--max-retries", "-1"])

    def test_executor_flag_overrides_plan_document(self, tmp_path):
        path = tmp_path / "plan.json"
        dump(small_plan(executor="tcp://plan-host:1"), path)
        args = build_parser().parse_args(
            ["run", str(path), "--executor", "tcp://cli-host:2,cli-host:3"]
        )
        plan = resolve_run_plan(args)
        assert plan.config.executor == "tcp://cli-host:2,cli-host:3"
        # absent flag keeps the document's fleet
        plan = resolve_run_plan(build_parser().parse_args(["run", str(path)]))
        assert plan.config.executor == "tcp://plan-host:1"

    def test_bad_executor_address_is_a_clean_error(self, capsys):
        assert main(["run", "smoke", "--executor", "udp://host:1"]) == 2
        assert "executor scheme" in capsys.readouterr().err


class TestWorkerAndCacheCommands:
    def test_worker_rejects_bad_listen_address(self, capsys):
        assert main(["worker", "--listen", "udp://0.0.0.0:1"]) == 2
        assert "tcp://HOST:PORT" in capsys.readouterr().err

    def test_cache_lifecycle_end_to_end(self, tmp_path, capsys, corrupt_record):
        """stats on an empty store, stats/verify after a run, prune after
        corrupting an entry — the CLI twin of the ResultStore maintenance."""
        from repro.resilience import ResultStore

        cache = str(tmp_path / "store")
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        assert "entries:         0" in capsys.readouterr().out

        path = tmp_path / "plan.json"
        dump(small_plan(), path)
        assert main(["run", str(path), "--cache-dir", cache]) == 0
        capsys.readouterr()

        assert main(["cache", "verify", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "corrupt entries: 0" in out

        corrupt_record(cache, ResultStore(cache).keys()[0])
        assert main(["cache", "verify", "--cache-dir", cache]) == 1
        assert "corrupt entries: 1" in capsys.readouterr().out
        assert main(["cache", "prune", "--cache-dir", cache]) == 0
        assert "removed corrupt entries: 1" in capsys.readouterr().out
        assert main(["cache", "verify", "--cache-dir", cache]) == 0


class TestExecution:
    def test_run_plan_file_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        dump(small_plan(), path)
        assert main(["run", str(path)]) == 0
        output = capsys.readouterr().out
        assert "cli-test" in output
        assert "rotor-push" in output and "static-oblivious" in output

    def test_run_with_csv_export(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        dump(small_plan(), path)
        csv_dir = tmp_path / "csv"
        assert main(["run", str(path), "--csv-dir", str(csv_dir)]) == 0
        assert (csv_dir / "cli-test.csv").is_file()

    def test_run_golden_smoke(self, capsys):
        assert main(["run", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "smoke" in output

    def test_list_shows_golden_plans(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "Golden plans" in output and "smoke" in output
        assert "multisource" in output

    def test_run_golden_multisource(self, capsys):
        assert (
            main(["run", "multisource", "--trials", "1", "--requests", "20"]) == 0
        )
        output = capsys.readouterr().out
        assert "multisource" in output
        assert "rotor-push" in output and "max-push" in output
        assert "total" in output

    def test_run_network_plan_file(self, tmp_path, capsys):
        from repro.network.traffic import TrafficSpec
        from repro.plans import NetworkPlan

        plan = NetworkPlan(
            name="cli-network",
            traffic=TrafficSpec.create(
                15,
                {0: WorkloadSpec.create("uniform", n_elements=15),
                 4: WorkloadSpec.create("uniform", n_elements=15)},
            ),
            algorithm="rotor-push",
            config=RunConfig(n_requests=30, n_trials=1),
        )
        path = tmp_path / "network.json"
        dump(plan, path)
        csv_dir = tmp_path / "csv"
        assert main(["run", str(path), "--csv-dir", str(csv_dir)]) == 0
        assert (csv_dir / "cli-network.csv").is_file()
        assert "cli-network" in capsys.readouterr().out

    def test_demo_runs_through_a_plan(self, capsys):
        assert main(["demo", "--nodes", "31", "--requests", "200", "--trials", "1"]) == 0
        output = capsys.readouterr().out
        assert "rotor-push" in output

    def test_run_with_cache_then_resume(self, tmp_path, capsys):
        """End-to-end resume through the CLI: the second invocation executes
        nothing and prints the identical table."""
        from repro.plans import last_run_stats

        path = tmp_path / "plan.json"
        dump(small_plan(), path)
        cache = tmp_path / "cache"
        assert main(["run", str(path), "--cache-dir", str(cache)]) == 0
        cold = capsys.readouterr().out
        assert last_run_stats().stored == 4  # 2 trials x 2 algorithms
        assert (
            main(["run", str(path), "--cache-dir", str(cache), "--resume"]) == 0
        )
        warm = capsys.readouterr().out
        stats = last_run_stats()
        assert stats.executed == 0 and stats.cache_hits == 4
        assert warm == cold

    def test_resume_without_store_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        dump(small_plan(), path)
        assert main(["run", str(path), "--resume"]) == 2
        err = capsys.readouterr().err
        assert "repro run:" in err and "cache" in err


class TestClosedPipe:
    """A reader that closes stdout early ends the command quietly with status 0."""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_list_into_a_closed_pipe(self, unbuffered):
        source = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(source), PYTHONUNBUFFERED=unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the first write: every write fails
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "list"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (completed.returncode, completed.stderr) == (0, b"")

    def test_a_status_survives_a_pipe_closed_at_the_final_flush(
        self, tmp_path, capsys, corrupt_record
    ):
        """``cache verify`` returns 1 for a corrupt entry; its few buffered
        lines fail only at ``main``'s flush, which must not turn it into 0."""
        from repro.resilience import ResultStore

        cache = str(tmp_path / "store")
        path = tmp_path / "plan.json"
        dump(small_plan(), path)
        assert main(["run", str(path), "--cache-dir", cache]) == 0
        capsys.readouterr()
        corrupt_record(cache, ResultStore(cache).keys()[0])

        source = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(source), PYTHONUNBUFFERED="")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "cache", "verify", "--cache-dir", cache],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert completed.returncode == 1
        assert b"Traceback" not in completed.stderr

    def test_a_reader_that_stops_after_five_bytes(self):
        source = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(source), PYTHONUNBUFFERED="1")
        with subprocess.Popen(
            [sys.executable, "-m", "repro", "list"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as process:
            assert len(process.stdout.read(5)) == 5
            process.stdout.close()
            stderr = process.stderr.read()
            assert (process.wait(timeout=120), stderr) == (0, b"")
