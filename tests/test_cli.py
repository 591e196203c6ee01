"""CLI tests (argument wiring and command execution)."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def small_reps(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BASELINE_REPS", "3")
    monkeypatch.setenv("REPRO_INJECT_REPS", "2")
    monkeypatch.setenv("REPRO_COLLECT_REPS", "4")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_spec_defaults(self):
        args = build_parser().parse_args(["baseline"])
        assert args.platform == "intel-9700kf"
        assert args.model == "omp"

    @pytest.mark.parametrize("flag", ["journal", "resume"])
    def test_removed_checkpoint_flags_rejected(self, flag, capsys):
        # Resuming is re-running the same command; the cache decides
        # what runs, so the old checkpoint flags are plain unknowns.
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "table1", f"--{flag}", "x.jsonl"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and f"--{flag}" in err


class TestCommands:
    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "intel-9700kf" in out and "a64fx-reserved" in out

    def test_baseline(self, capsys):
        assert main(["baseline", "--reps", "2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "mean=" in out

    def test_trace_writes_worst_case(self, tmp_path, capsys):
        out_file = tmp_path / "worst.json"
        assert main(["trace", "--reps", "3", "--out", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert "exec_time" in data and "sources" in data

    def test_configure_writes_config(self, tmp_path, capsys):
        out_file = tmp_path / "cfg.json"
        assert main(["configure", "--reps", "3", "--out", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert "threads" in data

    def test_inject_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        main(["configure", "--reps", "3", "--seed", "42", "--out", str(cfg)])
        assert main(["inject", "--reps", "2", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "degradation" in out

    def test_pipeline(self, capsys):
        assert main(["pipeline", "--reps", "2", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "replication accuracy" in out

    def test_noise_lists_registered_sources(self, capsys):
        assert main(["noise"]) == 0
        out = capsys.readouterr().out
        for kind in ("trace-replay", "io", "memory", "hpas.membw", "background"):
            assert kind in out
        assert "irq_cpus" in out  # per-source parameter docs

    def test_noise_prints_each_parameter_with_its_default(self, capsys):
        assert main(["noise"]) == 0
        out = capsys.readouterr().out
        assert "irq_rate        completion interrupts per second (default 2000.0)" in out
        assert "irq_cpus        +-separated CPUs receiving completions (default 0)" in out
        assert "preset          environment preset: desktop, desktop-nogui, hpc (required)" in out

    def test_inject_rejects_non_finite_noise_before_running(self, capsys):
        with pytest.raises(SystemExit, match="finite"):
            main(["inject", "--reps", "2",
                  "--noise", "memory:start=nan,duration=0.05,bandwidth_gbs=40"])
        assert capsys.readouterr().out == ""

    def test_inject_reports_a_missing_trace_replay_config(self, tmp_path):
        with pytest.raises(SystemExit, match="No such file"):
            main(["inject", "--noise", f"trace-replay:path={tmp_path / 'missing.json'}"])

    def test_inject_reports_a_missing_config(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit, match=r"^repro-noise: --config .*No such file"):
            main(["inject", "--reps", "2", "--config", str(missing)])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "text", ["{not json", "[]", '{"threads": [{"cpu": 0}]}', '{"threads": 3}']
    )
    def test_inject_reports_a_malformed_config(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(SystemExit, match=r"^repro-noise: --config "):
            main(["inject", "--reps", "2", "--config", str(bad)])
        with pytest.raises(SystemExit, match=r"^repro-noise: --noise "):
            main(["inject", "--reps", "2", "--noise", f"trace-replay:path={bad}"])
        assert capsys.readouterr().out == ""

    def test_inject_composes_heterogeneous_noise(self, tmp_path, capsys):
        """One invocation replays the worst case while composing I/O and
        memory interference on top — the unified-stack acceptance path."""
        cfg = tmp_path / "cfg.json"
        main(["configure", "--reps", "3", "--seed", "42", "--out", str(cfg)])
        assert (
            main(
                [
                    "inject",
                    "--reps", "2",
                    "--config", str(cfg),
                    "--noise", "io:start=0.01,duration=0.1,irq_cpus=0+1",
                    "--noise", "memory:start=0.0,duration=0.2,bandwidth_gbs=15",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "trace-replay + io + memory" in out
        assert "degradation" in out

    def test_inject_noise_only_needs_no_config(self, capsys):
        assert (
            main(
                [
                    "inject",
                    "--reps", "2",
                    "--noise", "hpas.membw:start=0.0,duration=0.1,bandwidth_gbs=10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "hpas.membw" in out

    def test_inject_without_any_noise_rejected(self):
        with pytest.raises(SystemExit, match="--config and/or"):
            main(["inject", "--reps", "2"])

    def test_inject_bad_noise_spec_rejected(self):
        with pytest.raises(SystemExit, match="warp-drive"):
            main(["inject", "--reps", "2", "--noise", "warp-drive:x=1"])

    def test_pipeline_with_extra_noise(self, capsys):
        assert (
            main(
                [
                    "pipeline",
                    "--reps", "2",
                    "--seed", "42",
                    "--noise", "io:start=0.01,duration=0.05",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "replication accuracy" in out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "paper" in out

    def test_table_and_campaign_render_the_same_table(self, capsys):
        assert main(["table", "1"]) == 0
        table = capsys.readouterr().out
        assert main(["campaign", "table1"]) == 0
        campaign = capsys.readouterr().out
        assert campaign.startswith(table + "\n")
        assert "cache: 6 hits, 0 misses" in campaign

    def test_figure3_demo(self, capsys):
        assert main(["figure", "3", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "local_timer" in out or "Event Type" in out

    def test_figure4_demo(self, capsys):
        assert main(["figure", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "refined" in out

    def test_figure5_demo(self, capsys):
        assert main(["figure", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "noise_events" in out

    def test_figure6_demo(self, capsys):
        assert main(["figure", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "injector processes" in out

    def test_analyze(self, tmp_path, capsys):
        trace_file = tmp_path / "t.json"
        main(["trace", "--reps", "3", "--seed", "4", "--out", str(trace_file)])
        capsys.readouterr()
        assert main(["analyze", str(trace_file), "--top", "3", "--bins", "5"]) == 0
        out = capsys.readouterr().out
        assert "top 3 sources" in out
        assert "noise timeline" in out
        assert "busiest" in out

    def test_anomaly_prob_flag(self, capsys):
        assert main(["baseline", "--reps", "3", "--anomaly-prob", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "anomalies observed: 3/3" in out


class TestServiceStartArgs:
    """A lease that is born expired or never expires, or a fleet of no
    workers, is a ``repro-noise:`` line naming the flag, and no queue
    is opened."""

    @pytest.mark.parametrize("lease", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("supervise", [[], ["--supervise"]])
    def test_bad_lease_rejected(self, tmp_path, lease, supervise):
        queue = tmp_path / "q.sqlite"
        argv = ["service", "start", "--queue", str(queue), "--drain", f"--lease={lease}"]
        with pytest.raises(SystemExit, match=r"^repro-noise: --lease "):
            main(argv + supervise)
        assert not queue.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    @pytest.mark.parametrize("supervise", [[], ["--supervise"]])
    def test_empty_fleet_rejected(self, tmp_path, workers, supervise):
        queue = tmp_path / "q.sqlite"
        argv = ["service", "start", "--queue", str(queue), "--drain", f"--workers={workers}"]
        with pytest.raises(SystemExit, match=r"^repro-noise: --workers "):
            main(argv + supervise)
        assert not queue.exists()


class TestServicePrune:
    """A bad retention window is a ``repro-noise:`` line naming the
    flag or the variable, and no row is pruned."""

    @staticmethod
    def finished_queue(tmp_path):
        from repro.service import JobQueue

        path = tmp_path / "q.sqlite"
        q = JobQueue(path)
        q.submit("a", {"k": "a"}, None, "a")
        q.lease("w1")
        assert q.complete("a", "w1") is True
        q.close()
        return path

    def prune(self, path, *args):
        assert main(["service", "prune", "--queue", str(path),
                     "--store", str(path.parent / "store"), *args]) == 0
        from repro.service import JobQueue

        return JobQueue(path).job("a")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "7d"])
    def test_bad_flag(self, tmp_path, monkeypatch, value):
        monkeypatch.delenv("REPRO_PRUNE_S", raising=False)
        path = self.finished_queue(tmp_path)
        with pytest.raises(SystemExit) as exc:
            self.prune(path, f"--older-than={value}")
        assert str(exc.value) == (
            f"repro-noise: --older-than must be a finite number of seconds >= 0, got '{value}'"
        )
        assert self.prune(path).status == "done"  # the 7-day default keeps it

    @pytest.mark.parametrize("value", ["nan", "7d"])
    def test_bad_environment(self, tmp_path, monkeypatch, value):
        path = self.finished_queue(tmp_path)
        monkeypatch.setenv("REPRO_PRUNE_S", value)
        with pytest.raises(SystemExit) as exc:
            self.prune(path)
        assert str(exc.value).startswith("repro-noise: REPRO_PRUNE_S must be")
        monkeypatch.delenv("REPRO_PRUNE_S")
        assert self.prune(path, "--older-than", "0") is None

    def test_drain_reports_a_bad_environment(self, tmp_path):
        # In a child process: a drain makes its process a service worker
        # (signal handlers, kill-worker chaos), which must not be pytest.
        import os
        import subprocess
        import sys
        from pathlib import Path

        path = self.finished_queue(tmp_path)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src, "REPRO_PRUNE_S": "nan"}
        env.pop("REPRO_CHAOS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "service", "drain", "--queue", str(path),
             "--store", str(tmp_path / "store")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.strip().splitlines()[-1].startswith(
            "repro-noise: REPRO_PRUNE_S must be"
        )
        from repro.service import JobQueue

        assert JobQueue(path).job("a").status == "done"


    def test_in_process_drain_restores_signals_and_worker_mark(self, tmp_path, monkeypatch):
        import signal

        from repro.harness.chaos import in_service_worker

        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        before = [signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGINT)]
        assert main(["service", "drain", "--queue", str(tmp_path / "q.sqlite"),
                     "--store", str(tmp_path / "store")]) == 0
        assert [signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGINT)] == before
        assert in_service_worker() is False


class TestServiceDlq:
    """``service dlq list|show`` output for a quarantined chunk job."""

    def quarantine_chunk(self, path):
        from repro.service import JobQueue

        q = JobQueue(path)
        q.submit_sharded(
            "cell", {"workload": "nbody", "reps": 4}, None, "nbody",
            chunks=[(0, 2), (2, 4)],
        )
        (job,) = q.lease("w1")
        assert job.key == "cell:0-2"
        q.report_worker_death("w1", pid=101)
        # One death demotes the chunk below its sibling, which finishes first.
        (job,) = q.lease("w3")
        assert job.key == "cell:2-4"
        assert q.complete_chunk("cell:2-4", "w3") == (False, "cell")
        (job,) = q.lease("w2")
        assert job.key == "cell:0-2"
        q.report_worker_death("w2", pid=102)
        q.close()

    def dlq(self, path, capsys, *args):
        assert main(
            ["service", "dlq", *args, "--queue", str(path), "--store", str(path.parent / "store")]
        ) == 0
        return capsys.readouterr().out

    def test_list_and_show(self, tmp_path, capsys):
        path = tmp_path / "q.sqlite"
        self.quarantine_chunk(path)
        assert self.dlq(path, capsys, "list") == (
            "cell:0-2  nbody[0:2]  reason=poison  deaths=2  attempts=2\n"
        )
        assert self.dlq(path, capsys, "show", "cell:0-2") == (
            "key:      cell:0-2\n"
            "label:    nbody[0:2]\n"
            "status:   quarantined\n"
            "reason:   poison\n"
            "error:    PoisonJob: poison: killed 2 distinct worker(s) mid-lease (w1, w2)\n"
            "attempts: 2/3\n"
            "chunk:    reps [0:2]\n"
            "death:    worker w1 (pid 101) attempt 1: worker died\n"
            "death:    worker w2 (pid 102) attempt 2: worker died\n"
            'spec:     {"reps": 4, "workload": "nbody"}\n'
            "revive:   repro-noise service dlq retry cell:0-2\n"
        )
