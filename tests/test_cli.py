"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scale == "tiny"
        assert args.seed == 0

    def test_experiment_ids(self):
        args = build_parser().parse_args(["experiment", "figure1", "table2"])
        assert args.ids == ["figure1", "table2"]

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scale", "huge"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "headline" in out

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["experiment", "figure99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_run_tiny(self, capsys):
        assert main(["run", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Serviceability rate" in out
        assert "paper: 55.45%" in out

    def test_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_run_sharded_matches_sequential(self, capsys):
        assert main(["run", "--scale", "tiny"]) == 0
        sequential = capsys.readouterr().out
        assert main(["run", "--scale", "tiny", "--shards", "3"]) == 0
        assert capsys.readouterr().out == sequential

    def test_run_bad_runtime_flags_exit_2(self, capsys):
        assert main(["run", "--resume"]) == 2
        assert "checkpoint_dir" in capsys.readouterr().err
        assert main(["run", "--shards", "-1"]) == 2
        assert "shards must be positive" in capsys.readouterr().err
        assert main(["run", "--workers", "0"]) == 2
        assert "workers must be positive" in capsys.readouterr().err

    def test_run_with_cache_and_checkpoints(self, tmp_path, capsys,
                                            monkeypatch):
        args = ["run", "--scale", "tiny", "--shards", "2",
                "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        first = capsys.readouterr().out
        # Checkpoints are namespaced per campaign fingerprint.
        assert list((tmp_path / "ckpt").glob("*/shard-*.json"))
        assert list((tmp_path / "cache").glob("*.json"))
        # Second run is a cache hit with identical output: it builds
        # no world.
        import repro.core.pipeline as pipeline_module
        import repro.synth.world as world_module

        def forbidden(*args, **kwargs):
            raise AssertionError("world rebuilt despite cached audit")

        monkeypatch.setattr(pipeline_module, "build_world", forbidden)
        monkeypatch.setattr(world_module, "build_world", forbidden)
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_export(self, tmp_path, capsys):
        assert main(["export", "--out", str(tmp_path), "--scale",
                     "tiny"]) == 0
        for name in ("audit.csv", "query_log.csv", "q3_query_log.csv",
                     "q3_blocks.csv", "caf_map.csv", "table1.csv",
                     "manifest.json"):
            assert (tmp_path / name).exists(), name

    def test_experiment_with_plot(self, capsys):
        assert main(["experiment", "figure6", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "CDFs" in out
        assert "log10(x)" in out

    def test_campaign(self, capsys):
        assert main(["campaign"]) == 0
        out = capsys.readouterr().out
        assert "months" in out
        assert "bottleneck" in out

    def test_report(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "--out", str(out)]) == 0
        assert out.exists()
        assert "Reproduction report" in out.read_text()

    def test_validate(self, capsys):
        assert main(["validate", "--scale", "tiny"]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_oversight(self, capsys):
        assert main(["oversight", "--isp", "frontier"]) == 0
        out = capsys.readouterr().out
        assert "frontier" in out
        assert "detection power" in out


class TestAsyncBackendFlags:
    def test_parser_accepts_async_backends(self):
        """Interleaving is --max-inflight on any placement; the old
        composite backend names are gone from both commands."""
        args = build_parser().parse_args(
            ["run", "--backend", "process", "--max-inflight", "12"])
        assert args.backend == "process"
        assert args.max_inflight == 12
        for command in ("run", "panel"):
            for backend in ("threads", "async", "process+async"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args(
                        [command, "--backend", backend])

    def test_run_async_matches_sequential(self, capsys):
        assert main(["run", "--scale", "tiny"]) == 0
        sequential = capsys.readouterr().out
        assert main(["run", "--scale", "tiny", "--shards", "3",
                     "--backend", "serial", "--max-inflight", "16"]) == 0
        assert capsys.readouterr().out == sequential

    def test_bad_max_inflight_exits_2(self, capsys):
        assert main(["run", "--max-inflight", "0"]) == 2
        assert "max_inflight must be positive" in capsys.readouterr().err

    def test_shard_progress_lines_on_stderr(self, capsys):
        assert main(["run", "--scale", "tiny", "--shards", "3",
                     "--max-inflight", "8"]) == 0
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if l.startswith("[shard ")]
        assert len(lines) == 3
        assert "3/3 shards" in lines[-1]
        assert "ETA" in lines[0]

    def test_progress_printer_eta_math(self):
        from io import StringIO

        from repro.cli import _shard_progress_printer
        from repro.runtime import ShardResult

        stream = StringIO()
        on_progress = _shard_progress_printer(stream)
        on_progress(1, 4, ShardResult(index=2, count=4))
        on_progress(2, 4, ShardResult(index=0, count=4))
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("[shard 2] done")
        assert "1/4 shards" in lines[0]
        assert "2/4 shards" in lines[1]

    def test_progress_printer_excludes_restored_from_rate(self):
        """The resumed-ETA bug this PR fixes: restored checkpoints
        arrive in microseconds and must not contribute near-zero
        intervals to the ETA rate."""
        from io import StringIO

        from repro.cli import _shard_progress_printer
        from repro.runtime import ShardResult

        stream = StringIO()
        on_progress = _shard_progress_printer(stream)
        # Three shards restore instantly, then the first executed
        # shard completes.
        for position, index in enumerate((0, 1, 2), start=1):
            on_progress(position, 5, ShardResult(index=index, count=5),
                        True)
        cells = {"VT|consolidated": (), "NH|consolidated": ()}
        on_progress(4, 5, ShardResult(index=3, count=5,
                                      q12_records=dict(cells)), False)
        lines = stream.getvalue().splitlines()
        assert all("restored from checkpoint" in line
                   for line in lines[:3])
        assert all("ETA" not in line for line in lines[:3])
        # One executed shard = no interval observed yet: the rate must
        # be unknown, not the absurd restored-shard rate.
        assert "ETA pending" in lines[3]
        # A second executed completion starts the real cell rate.
        on_progress(5, 5, ShardResult(index=4, count=5,
                                      q12_records=dict(cells)), False)
        assert "ETA 0.0s" in stream.getvalue().splitlines()[4]

    def test_max_inflight_promotes_auto_to_async(self, capsys):
        """An explicit --max-inflight must not be silently ignored: it
        asks for the sharded runtime under auto, and composes with an
        explicit serial backend instead of contradicting it."""
        assert main(["run", "--scale", "tiny"]) == 0
        sequential = capsys.readouterr().out
        assert main(["run", "--scale", "tiny", "--shards", "2",
                     "--max-inflight", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("[shard ") == 2  # sharded progress ran
        assert captured.out == sequential
        assert main(["run", "--scale", "tiny", "--shards", "2",
                     "--backend", "serial", "--max-inflight", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("[shard ") == 2
        assert captured.out == sequential

    def test_explicit_default_max_inflight_still_promotes(self, capsys):
        """--max-inflight 8 (the documented default, given explicitly)
        must behave like any other explicit value, not like an absent
        flag."""
        assert main(["run", "--scale", "tiny", "--shards", "2",
                     "--max-inflight", "8"]) == 0
        err = capsys.readouterr().err
        assert "no effect" not in err
        assert err.count("[shard ") == 2

    def test_async_with_workers_composes_to_process_async(self, capsys):
        """--max-inflight with --workers N>1 keeps both: a process pool
        whose workers each interleave their shard on an event loop."""
        assert main(["run", "--scale", "tiny"]) == 0
        sequential = capsys.readouterr().out
        assert main(["run", "--scale", "tiny", "--shards", "2",
                     "--workers", "2", "--max-inflight", "16"]) == 0
        captured = capsys.readouterr()
        assert captured.out == sequential
        assert captured.err.count("[shard ") == 2

    def test_resume_prints_restored_lines(self, tmp_path, capsys):
        shard_dir = str(tmp_path / "ckpt")
        assert main(["run", "--scale", "tiny", "--shards", "3",
                     "--checkpoint-dir", shard_dir]) == 0
        first = capsys.readouterr()
        assert first.err.count("[shard ") == 3
        assert "restored" not in first.err
        assert main(["run", "--scale", "tiny", "--shards", "3",
                     "--checkpoint-dir", shard_dir, "--resume"]) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert second.err.count("restored from checkpoint") == 3
        # Restored shards carry no ETA estimate at all.
        restored_lines = [line for line in second.err.splitlines()
                          if "restored" in line]
        assert all("ETA" not in line for line in restored_lines)

    def test_malformed_cache_max_bytes_exits_2(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1G")
        assert main(["run", "--scale", "tiny",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "REPRO_CACHE_MAX_BYTES" in capsys.readouterr().err

    def test_list_ignores_malformed_cache_bound_without_cache(
            self, capsys, monkeypatch):
        """Commands that construct no cache must not trip over an env
        var they never read."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1G")
        assert main(["list"]) == 0
        assert "figure1" in capsys.readouterr().out


class TestDistributedBackendFlags:
    def test_parser_accepts_distributed(self):
        args = build_parser().parse_args(
            ["run", "--backend", "distributed", "--workers", "2"])
        assert args.backend == "distributed"

    def test_worker_parser(self):
        args = build_parser().parse_args(
            ["worker", "--connect", "/tmp/coord.sock",
             "--die-after", "2", "--wedge-after", "1"])
        assert args.connect == "/tmp/coord.sock"
        assert args.die_after == 2
        assert args.wedge_after == 1
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])  # --connect required

    def test_worker_bad_address_exits_nonzero(self, tmp_path, capsys):
        missing = str(tmp_path / "nope" / "coord.sock")
        assert main(["worker", "--connect", missing]) == 1
        assert "caf-audit worker:" in capsys.readouterr().err
        assert main(["worker", "--connect", missing,
                     "--die-after", "-1"]) == 2
        assert "--die-after" in capsys.readouterr().err
        assert main(["worker", "--connect", missing,
                     "--wedge-after", "-1"]) == 2
        assert "--wedge-after" in capsys.readouterr().err

    def test_lease_timeout_requires_distributed(self, capsys):
        assert main(["run", "--scale", "tiny", "--shards", "2",
                     "--lease-timeout", "60"]) == 2
        assert "lease_timeout requires the distributed backend" in \
            capsys.readouterr().err

    @pytest.mark.chaos
    def test_run_distributed_matches_sequential(self, capsys):
        assert main(["run", "--scale", "tiny"]) == 0
        sequential = capsys.readouterr().out
        assert main(["run", "--scale", "tiny", "--shards", "3",
                     "--workers", "2", "--backend", "distributed"]) == 0
        captured = capsys.readouterr()
        assert captured.out == sequential
        assert captured.err.count("[shard ") == 3

@pytest.mark.longitudinal
class TestPanelCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["panel"])
        assert args.waves == 3
        assert args.churn_cell_rate == pytest.approx(0.10)
        assert args.years_per_wave == 1

    def test_panel_runs_and_reports_reuse(self, capsys):
        assert main(["panel", "--waves", "1",
                     "--churn-cell-rate", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "[wave 0] snapshot" in out
        assert "[wave 1] +1y" in out
        assert "replayed" in out
        assert "serviceability" in out

    def test_panel_store_resume_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "panel")
        assert main(["panel", "--waves", "1", "--store", store]) == 0
        first = capsys.readouterr().out
        assert main(["panel", "--waves", "1", "--store", store,
                     "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "restored from store" in resumed
        # Same drift numbers, whether replayed or re-collected.
        assert [line.split("(")[0] for line in resumed.splitlines()
                if "serviceability" in line] == \
            [line.split("(")[0] for line in first.splitlines()
             if "serviceability" in line]

    def test_invalid_waves_exit_2(self, capsys):
        assert main(["panel", "--waves", "0"]) == 2
        assert "--waves" in capsys.readouterr().err

    def test_invalid_churn_rate_exit_2(self, capsys):
        assert main(["panel", "--churn-cell-rate", "1.5"]) == 2
        assert "probability" in capsys.readouterr().err

    def test_resume_without_store_exit_2(self, capsys):
        assert main(["panel", "--resume"]) == 2
        assert "resume" in capsys.readouterr().err


class TestServiceCommands:
    """Parsing and fast error paths for serve/submit/follow/query (the
    daemon itself is exercised end to end in test_service_daemon.py
    and test_service_chaos.py)."""

    def test_parser_accepts_service_commands(self):
        parser = build_parser()
        serve = parser.parse_args(["serve", "--journal", "j"])
        assert serve.journal == "j" and serve.name == "audit"
        submit = parser.parse_args(
            ["submit", "--connect", "host:9", "--kind", "panel",
             "--waves", "2", "--wait"])
        assert submit.kind == "panel" and submit.wait
        follow = parser.parse_args(
            ["follow", "--connect", "host:9", "--journal", "replica"])
        assert follow.journal == "replica"
        query = parser.parse_args(
            ["query", "--connect", "host:9", "--what", "wave-analysis",
             "--job", "job-1", "--wave", "0"])
        assert query.what == "wave-analysis" and query.wave == 0

    def test_serve_requires_journal(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_query_rejects_unknown_what(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--connect", "h:9", "--what", "horoscope"])

    def test_pace_parsing(self):
        from repro.cli import _parse_pace

        assert _parse_pace("none") == 0.0
        assert _parse_pace("real") == 1.0
        assert _parse_pace("0.25") == 0.25
        with pytest.raises(ValueError):
            _parse_pace("banana")
        # Negative paces parse but are refused by EngineConfig — the
        # command helper turns that into exit code 2.
        from repro.cli import _engine_config_for_pace

        assert _engine_config_for_pace("run", "-1") == 2

    def test_run_bad_pace_exits_2(self, capsys):
        assert main(["run", "--pace", "banana"]) == 2
        assert "--pace" in capsys.readouterr().err

    def test_submit_bad_pace_exits_2_before_connecting(self, capsys):
        # The bogus --connect address proves no connection is attempted.
        assert main(["submit", "--connect", "nowhere.invalid:1",
                     "--pace", "-3"]) == 2
        assert "--pace" in capsys.readouterr().err

    def test_run_worker_address_requires_distributed(self, capsys):
        assert main(["run", "--worker-address", "127.0.0.1:0"]) == 2
        assert "worker_address" in capsys.readouterr().err
