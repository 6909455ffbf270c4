"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_figure_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--figure", "11"])


class TestInfo:
    def test_lists_components(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro.core" in out
        assert "DSN 2005" in out


class TestScenario:
    def test_runs_small_scenario(self, capsys):
        code = main([
            "scenario", "--n", "30", "--group-size", "6",
            "--alpha", "0.6", "--topology-seed", "2", "--member-seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "RD SPF" in out and "RD SMRP" in out
        assert "Cost_relative" in out

    def test_query_mode_flag(self, capsys):
        code = main([
            "scenario", "--n", "30", "--group-size", "5",
            "--alpha", "0.6", "--knowledge", "query", "--no-reshape",
        ])
        assert code == 0
        assert "scenario:" in capsys.readouterr().out


class TestSimulate:
    def test_join_only(self, capsys):
        code = main(["simulate", "--n", "20", "--members", "3", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "join latency" in out
        assert "JoinReq" in out

    def test_with_failure(self, capsys):
        code = main([
            "simulate", "--n", "20", "--members", "3", "--seed", "4",
            "--fail-worst",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "injected failure" in out


class TestFigures:
    def test_single_quick_figure(self, capsys):
        code = main(["figures", "--quick", "--figure", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out


class TestExecutorFlags:
    @pytest.mark.parametrize("command", ["figures", "scenario"])
    def test_jobs_below_one_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_scenario_through_process_executor(self, capsys):
        code = main([
            "scenario", "--n", "30", "--group-size", "6", "--alpha", "0.6",
            "--jobs", "2",
        ])
        assert code == 0
        assert "Cost_relative" in capsys.readouterr().out

    def test_parallel_figure_matches_serial(self, capsys):
        argv = ["figures", "--quick", "--figure", "8"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_simulate_takes_no_executor_flags(self, capsys):
        # One DES run is one work unit: the executor flags are not its.
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--n", "20", "--members", "3", "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_info_documents_parallel_flags(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "--jobs" in out
        assert "repro.api" in out


class TestRejectedFlagsOpenNoFile:
    """A command rejected for an executor flag exits 2 before any sink
    opens its file: no flight record appears, and an existing one (whose
    torn tail opening would cut) keeps every byte."""

    @pytest.mark.parametrize(
        "flags",
        [["--jobs", "0"], ["--timeout", "-5"], ["--resume"],
         ["--inject-fault", "bogus"]],
        ids=["jobs", "timeout", "resume", "inject-fault"],
    )
    def test_no_flight_record_is_opened(self, flags, capsys, tmp_path):
        fresh = tmp_path / "fresh.ndjson"
        existing = tmp_path / "existing.ndjson"
        before = b'{"kind":"sweep.start"}\n{"kind":"scen'
        existing.write_bytes(before)
        for path in (fresh, existing):
            with pytest.raises(SystemExit) as excinfo:
                main(["figures", "--quick", "--figure", "7",
                      "--telemetry-out", str(path), *flags])
            assert excinfo.value.code == 2
            assert "repro: error: " in capsys.readouterr().err
        assert not fresh.exists()
        assert existing.read_bytes() == before


class TestObs:
    def test_report_requires_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "report"])

    def test_scenario_obs_out_then_report(self, capsys, tmp_path):
        path = str(tmp_path / "run.json")
        code = main([
            "scenario", "--n", "30", "--group-size", "6",
            "--alpha", "0.6", "--topology-seed", "2", "--member-seed", "3",
            "--obs-out", path,
        ])
        assert code == 0
        assert path in capsys.readouterr().out

        assert main(["obs", "report", path]) == 0
        out = capsys.readouterr().out
        assert "== run report ==" in out
        assert "command: scenario" in out
        assert "smrp.joins" in out
        assert "scenario.build.smrp" in out

    def test_simulate_obs_out_then_report(self, capsys, tmp_path):
        path = str(tmp_path / "sim.json")
        code = main([
            "simulate", "--n", "20", "--members", "3", "--seed", "4",
            "--obs-out", path,
        ])
        assert code == 0
        capsys.readouterr()

        assert main(["obs", "report", path]) == 0
        out = capsys.readouterr().out
        assert "sim.engine.events_fired" in out
        assert "sim.msg.sent.JoinReq" in out
        assert "sim.engine.queue_depth" in out

    def test_report_rejects_non_report_json(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        assert main(["obs", "report", str(path)]) == 1
        assert "not a repro run report" in capsys.readouterr().err

    def test_report_missing_file(self, capsys):
        assert main(["obs", "report", "/nonexistent/run.json"]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_obs_out_rejects_missing_directory(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "scenario", "--n", "30", "--group-size", "6",
                "--obs-out", "/nonexistent-dir/run.json",
            ])
        assert "--obs-out directory does not exist" in capsys.readouterr().err


class TestTelemetryFlags:
    SCENARIO = [
        "scenario", "--n", "30", "--group-size", "6",
        "--alpha", "0.6", "--topology-seed", "2", "--member-seed", "3",
    ]

    def test_scenario_with_all_sinks_is_byte_identical(self, capsys, tmp_path):
        assert main(self.SCENARIO) == 0
        plain = capsys.readouterr().out
        flight = str(tmp_path / "flight.ndjson")
        prom = str(tmp_path / "metrics.prom")
        code = main(self.SCENARIO + [
            "--retries", "2", "--progress",
            "--telemetry-out", flight, "--openmetrics-out", prom,
        ])
        assert code == 0
        captured = capsys.readouterr()
        # The observe-only invariant: stdout is byte-identical; progress
        # went to stderr, records and metrics to side files.
        assert captured.out == plain
        assert "sweep finished" in captured.err
        import json

        records = [
            json.loads(line)
            for line in open(flight, encoding="utf-8")
        ]
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "sweep.start" and kinds[-1] == "sweep.finish"
        assert "scenario.finish" in kinds
        assert "# EOF" in open(prom, encoding="utf-8").read()

    def test_telemetry_out_rejects_missing_directory(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.SCENARIO + [
                "--telemetry-out", "/nonexistent-dir/flight.ndjson",
            ])
        assert excinfo.value.code == 2
        assert (
            "--telemetry-out directory does not exist"
            in capsys.readouterr().err
        )


class TestObsTail:
    def _record_flight(self, tmp_path):
        path = str(tmp_path / "flight.ndjson")
        code = main([
            "scenario", "--n", "30", "--group-size", "6",
            "--telemetry-out", path,
        ])
        assert code == 0
        return path

    def test_tail_renders_timeline(self, capsys, tmp_path):
        path = self._record_flight(tmp_path)
        capsys.readouterr()
        assert main(["obs", "tail", path]) == 0
        out = capsys.readouterr().out
        assert "flight record:" in out
        assert "sweep started" in out
        assert "record kinds:" in out

    def test_tail_last_elides(self, capsys, tmp_path):
        path = self._record_flight(tmp_path)
        capsys.readouterr()
        assert main(["obs", "tail", path, "--last", "1"]) == 0
        out = capsys.readouterr().out
        assert "earlier records elided" in out

    def test_tail_missing_file(self, capsys):
        assert main(["obs", "tail", "/nonexistent/flight.ndjson"]) == 1
        assert "no such file" in capsys.readouterr().err


class TestObsExport:
    def _capture_report(self, tmp_path):
        path = str(tmp_path / "run.json")
        assert main([
            "scenario", "--n", "30", "--group-size", "6", "--obs-out", path,
        ]) == 0
        return path

    def test_export_openmetrics_to_stdout(self, capsys, tmp_path):
        path = self._capture_report(tmp_path)
        capsys.readouterr()
        assert main(["obs", "export", path, "--format", "openmetrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_smrp_joins counter" in out
        assert out.endswith("# EOF\n")

    def test_export_to_file(self, capsys, tmp_path):
        path = self._capture_report(tmp_path)
        out_path = str(tmp_path / "metrics.prom")
        capsys.readouterr()
        assert main(["obs", "export", path, "--out", out_path]) == 0
        text = open(out_path, encoding="utf-8").read()
        assert text.endswith("# EOF\n")
        assert out_path in capsys.readouterr().out

    def test_export_rejects_non_report(self, capsys, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("{}")
        assert main(["obs", "export", str(junk)]) == 1
        assert "not a repro run report" in capsys.readouterr().err


class TestObsDiff:
    def _capture(self, tmp_path, name, seed):
        path = str(tmp_path / name)
        assert main([
            "scenario", "--n", "30", "--group-size", "6",
            "--topology-seed", str(seed), "--obs-out", path,
        ]) == 0
        return path

    def test_self_diff_identical_counters(self, capsys, tmp_path):
        path = self._capture(tmp_path, "a.json", 0)
        capsys.readouterr()
        assert main(["obs", "diff", path, path]) == 0
        out = capsys.readouterr().out
        assert "counters: identical" in out

    def test_different_runs_show_counter_deltas(self, capsys, tmp_path):
        a = self._capture(tmp_path, "a.json", 0)
        b = self._capture(tmp_path, "b.json", 5)
        capsys.readouterr()
        assert main(["obs", "diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "counters changed" in out
        assert "span-time ratios" in out

    def test_fail_over_trips_nonzero_exit(self, capsys, tmp_path):
        import json

        a = self._capture(tmp_path, "a.json", 0)
        report = json.load(open(a, encoding="utf-8"))
        # Inflate every span tenfold in the candidate.
        def inflate(node):
            node["total_s"] = node.get("total_s", 0.0) * 10
            for child in node.get("children", []):
                inflate(child)
        inflate(report["spans"])
        b = str(tmp_path / "b.json")
        json.dump(report, open(b, "w", encoding="utf-8"))
        capsys.readouterr()
        assert main(["obs", "diff", a, b, "--fail-over", "2.0"]) == 1
        captured = capsys.readouterr()
        assert "over --fail-over 2" in captured.out
        assert "exceeds" in captured.err

    def test_diff_rejects_non_report(self, capsys, tmp_path):
        a = self._capture(tmp_path, "a.json", 0)
        junk = tmp_path / "junk.json"
        junk.write_text("{}")
        capsys.readouterr()
        assert main(["obs", "diff", a, str(junk)]) == 1
        assert "not a repro run report" in capsys.readouterr().err


class TestTrace:
    # topology-seed 1: all members restore under the worst-case failure,
    # so the analysis includes the latency and phase-breakdown sections.
    SCENARIO = [
        "scenario", "--n", "30", "--group-size", "6",
        "--alpha", "0.6", "--topology-seed", "1", "--member-seed", "3",
    ]

    def _record_trace(self, capsys, tmp_path):
        path = str(tmp_path / "trace.ndjson")
        assert main(self.SCENARIO + ["--trace-out", path]) == 0
        capsys.readouterr()
        return path

    def test_trace_out_is_observe_only(self, capsys, tmp_path):
        assert main(self.SCENARIO) == 0
        plain = capsys.readouterr().out
        path = str(tmp_path / "trace.ndjson")
        assert main(self.SCENARIO + ["--trace-out", path]) == 0
        captured = capsys.readouterr()
        # Stdout byte-identical; the confirmation goes to stderr.
        assert captured.out == plain
        assert path in captured.err

    def test_trace_out_writes_loadable_ndjson(self, capsys, tmp_path):
        import json

        path = self._record_trace(capsys, tmp_path)
        lines = [
            json.loads(line) for line in open(path, encoding="utf-8")
        ]
        assert lines[0]["kind"] == "trace-header"
        assert lines[0]["clock"] == "sim"
        assert all(line["kind"] == "episode" for line in lines[1:])
        assert len(lines) == lines[0]["episodes"] + 1

    def test_trace_out_rejects_missing_directory(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.SCENARIO + [
                "--trace-out", "/nonexistent-dir/trace.ndjson",
            ])
        assert excinfo.value.code == 2
        assert (
            "--trace-out directory does not exist" in capsys.readouterr().err
        )

    def test_analyze_renders_and_checks(self, capsys, tmp_path):
        path = self._record_trace(capsys, tmp_path)
        assert main(["trace", "analyze", path, "--check"]) == 0
        captured = capsys.readouterr()
        assert "== restoration trace analysis ==" in captured.out
        assert "critical-path phase breakdown:" in captured.out
        assert "trace check passed" in captured.err

    def test_analyze_missing_file(self, capsys):
        assert main(["trace", "analyze", "/nonexistent/trace.ndjson"]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_analyze_rejects_garbage(self, capsys, tmp_path):
        bad = tmp_path / "bad.ndjson"
        bad.write_text("not json\n")
        assert main(["trace", "analyze", str(bad)]) == 1
        assert "bad.ndjson:1: corrupt trace record" in capsys.readouterr().err

    def test_export_chrome_round_trips(self, capsys, tmp_path):
        import json

        from repro.obs import read_trace_ndjson
        from tests.obs.chrome_oracle import episodes_from_chrome

        path = self._record_trace(capsys, tmp_path)
        out = str(tmp_path / "trace.json")
        assert main(["trace", "export", path, "--out", out]) == 0
        assert "ui.perfetto.dev" in capsys.readouterr().out
        document = json.load(open(out, encoding="utf-8"))
        assert document["otherData"]["format"] == "repro-restoration-trace"
        rebuilt = episodes_from_chrome(document)
        original = read_trace_ndjson(path).episodes
        assert [e.to_dict() for e in rebuilt] == [
            e.to_dict() for e in original
        ]

    def test_export_chrome_to_stdout(self, capsys, tmp_path):
        import json

        path = self._record_trace(capsys, tmp_path)
        assert main(["trace", "export", path]) == 0
        document = json.loads(capsys.readouterr().out)
        assert "traceEvents" in document

    def test_export_ndjson_requires_out(self, capsys, tmp_path):
        path = self._record_trace(capsys, tmp_path)
        assert main(["trace", "export", path, "--format", "ndjson"]) == 1
        assert "requires --out" in capsys.readouterr().err

    def test_export_ndjson_is_idempotent(self, capsys, tmp_path):
        path = self._record_trace(capsys, tmp_path)
        out = str(tmp_path / "copy.ndjson")
        assert main([
            "trace", "export", path, "--format", "ndjson", "--out", out,
        ]) == 0
        assert (
            open(out, encoding="utf-8").read()
            == open(path, encoding="utf-8").read()
        )

    def test_diff_against_self_is_flat(self, capsys, tmp_path):
        path = self._record_trace(capsys, tmp_path)
        assert main([
            "trace", "diff", path, path, "--fail-over", "0.0",
        ]) == 0
        assert "trace diff" in capsys.readouterr().out

    def test_simulate_trace_out(self, capsys, tmp_path):
        from repro.obs import read_trace_ndjson
        from repro.obs.tracing import validate_episode

        path = str(tmp_path / "sim.ndjson")
        assert main([
            "simulate", "--n", "20", "--members", "3", "--seed", "4",
            "--fail-worst", "--trace-out", path,
        ]) == 0
        episodes = read_trace_ndjson(path).episodes
        assert episodes
        for episode in episodes:
            assert episode.origin == "des"
            assert validate_episode(episode) == []


class TestController:
    ARGS = [
        "controller", "--n", "50", "--groups", "10", "--sources", "4",
        "--shard-size", "4",
    ]

    def test_hosts_and_restores(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "hosted: 10 groups" in out
        assert "worst restoration latency" in out

    def test_serve_alias_sharded_matches_serial(self, capsys):
        assert main(self.ARGS) == 0
        serial = capsys.readouterr().out
        assert main(["serve", *self.ARGS[1:], "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_spec_file_round_trips_the_flags(self, capsys, tmp_path):
        from repro.controller import ServiceSpec

        assert main(self.ARGS) == 0
        from_flags = capsys.readouterr().out
        path = str(tmp_path / "spec.json")
        spec = ServiceSpec(n=50, groups=10, sources=4, shard_size=4)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(spec.to_json())
        assert main(["controller", "--spec", path]) == 0
        assert capsys.readouterr().out == from_flags

    def test_spec_file_rejects_extra_flags(self, capsys, tmp_path):
        path = str(tmp_path / "spec.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{}")
        code = main(["controller", "--spec", path, "--groups", "7"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--spec replaces the whole service spec" in err
        assert "--groups" in err

    def test_missing_spec_file_is_exit_2(self, capsys):
        assert main(["controller", "--spec", "/nope/spec.json"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_bad_spec_value_is_exit_2(self, capsys):
        assert main(["controller", "--groups", "0"]) == 2
        assert "repro: error" in capsys.readouterr().err

    def test_bad_failure_mode_is_exit_2(self, capsys):
        assert main([
            "controller", "--n", "30", "--groups", "2", "--sources", "2",
            "--failure", "link:999-998",
        ]) == 2
        assert "no link" in capsys.readouterr().err

    def test_obs_out_report(self, capsys, tmp_path):
        path = str(tmp_path / "controller.json")
        assert main([*self.ARGS, "--obs-out", path]) == 0
        capsys.readouterr()
        assert main(["obs", "report", path]) == 0
        out = capsys.readouterr().out
        assert "controller.groups_opened" in out

    def test_telemetry_flight_record_tails(self, capsys, tmp_path):
        path = str(tmp_path / "flight.ndjson")
        assert main([*self.ARGS, "--telemetry-out", path]) == 0
        capsys.readouterr()
        assert main(["obs", "tail", path]) == 0
        assert "group.restore" in capsys.readouterr().out

    def test_info_documents_the_controller(self, capsys):
        assert main(["info"]) == 0
        assert "repro.controller" in capsys.readouterr().out


class TestDistribution:
    ARGS = [
        "distribution", "--engines", "smrp", "spf", "--groups", "30",
        "--shard-size", "8",
    ]

    def test_prints_quantile_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "== restoration-latency distribution ==" in out
        assert "p99.9" in out
        assert "smrp" in out and "spf" in out

    def test_parallel_output_byte_identical(self, capsys):
        assert main(self.ARGS) == 0
        serial = capsys.readouterr().out
        assert main([*self.ARGS, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_resumed_output_byte_identical(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        assert main(self.ARGS) == 0
        serial = capsys.readouterr().out
        assert main([*self.ARGS, "--checkpoint-dir", ckpt]) == 0
        assert capsys.readouterr().out == serial
        assert main([*self.ARGS, "--checkpoint-dir", ckpt, "--resume"]) == 0
        assert capsys.readouterr().out == serial

    def test_bad_engine_rejected_by_parser(self):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(["distribution", "--engines", "warp"])

    def test_bad_groups_is_exit_2(self, capsys):
        assert main(["distribution", "--groups", "0"]) == 2
        assert "repro: error" in capsys.readouterr().err

    def test_obs_report_carries_hdr_quantiles(self, capsys, tmp_path):
        path = str(tmp_path / "dist.json")
        assert main([*self.ARGS, "--obs-out", path]) == 0
        capsys.readouterr()
        assert main(["obs", "report", path]) == 0
        out = capsys.readouterr().out
        assert "dist.latency.smrp" in out
        assert "p99=" in out


class TestProfileFlag:
    def test_profile_prints_self_time_table_to_stderr(self, capsys):
        args = [
            "distribution", "--engines", "smrp", "--groups", "30",
            "--shard-size", "8",
        ]
        assert main(args) == 0
        plain = capsys.readouterr()
        assert main([*args, "--profile"]) == 0
        profiled = capsys.readouterr()
        # observe-only: stdout stays byte-identical
        assert profiled.out == plain.out
        assert "self-time profile" in profiled.err
        assert "prof.run" in profiled.err
        assert "wall" in profiled.err

    def test_profile_records_wall_in_report_meta(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "run.json")
        assert main([
            "distribution", "--engines", "smrp", "--groups", "30",
            "--shard-size", "8", "--profile", "--obs-out", path,
        ]) == 0
        report = json.load(open(path, encoding="utf-8"))
        assert report["meta"]["profile_wall_s"] > 0
        assert report["meta"]["command"] == "distribution"


class TestObsFlame:
    def _profiled_report(self, tmp_path) -> str:
        path = str(tmp_path / "run.json")
        assert main([
            "distribution", "--engines", "smrp", "--groups", "30",
            "--shard-size", "8", "--profile", "--obs-out", path,
        ]) == 0
        return path

    def test_collapsed_stacks_to_stdout(self, capsys, tmp_path):
        path = self._profiled_report(tmp_path)
        capsys.readouterr()
        assert main(["obs", "flame", path]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines, "expected collapsed-stack lines"
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
            assert stack.startswith("prof.run")
        assert "total self time" in captured.err
        assert "wall-clock coverage" in captured.err

    def test_self_time_within_one_percent_of_wall(self, capsys, tmp_path):
        """The acceptance contract: on a serial profiled run the flame's
        self-time total matches the measured wall clock within 1%."""
        import json

        path = self._profiled_report(tmp_path)
        capsys.readouterr()
        assert main(["obs", "flame", path]) == 0
        out = capsys.readouterr().out
        covered = sum(
            int(line.rsplit(" ", 1)[1]) for line in out.splitlines()
        ) / 1_000_000
        wall = json.load(open(path, encoding="utf-8"))["meta"]["profile_wall_s"]
        assert abs(covered - wall) / wall < 0.01

    def test_out_file(self, capsys, tmp_path):
        path = self._profiled_report(tmp_path)
        out_path = str(tmp_path / "flame.txt")
        capsys.readouterr()
        assert main(["obs", "flame", path, "--out", out_path]) == 0
        assert "written to" in capsys.readouterr().out
        text = open(out_path, encoding="utf-8").read()
        assert text.startswith("prof.run")

    def test_rejects_non_report(self, capsys, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("[]")
        assert main(["obs", "flame", str(junk)]) == 1
        assert "repro: error" in capsys.readouterr().err


class TestObsDiffQuantiles:
    def _dist_report(self, tmp_path, name: str) -> str:
        path = str(tmp_path / name)
        assert main([
            "distribution", "--engines", "smrp", "--groups", "30",
            "--shard-size", "8", "--obs-out", path,
        ]) == 0
        return path

    def test_quantile_regression_trips_fail_over(self, capsys, tmp_path):
        import json

        a = self._dist_report(tmp_path, "a.json")
        report = json.load(open(a, encoding="utf-8"))
        # Shift every latency histogram 8 buckets up (~17% regression).
        for payload in report["metrics"]["hdr_histograms"].values():
            payload["counts"] = [[i + 8, c] for i, c in payload["counts"]]
            payload["min"] *= 1.2
            payload["max"] *= 1.2
        b = str(tmp_path / "b.json")
        json.dump(report, open(b, "w", encoding="utf-8"))
        capsys.readouterr()
        assert main(["obs", "diff", a, b, "--fail-over", "1.1"]) == 1
        captured = capsys.readouterr()
        assert "latency-quantile" in captured.out
        assert "latency-quantile ratio exceeds" in captured.err

    def test_identical_reports_pass_gate(self, capsys, tmp_path):
        a = self._dist_report(tmp_path, "a.json")
        capsys.readouterr()
        assert main(["obs", "diff", a, a, "--fail-over", "1.05"]) == 0
        assert "latency-quantile ratios" in capsys.readouterr().out
