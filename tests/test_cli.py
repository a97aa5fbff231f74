"""Command-line interface."""

import pytest

from repro.cli import main


class TestTraces:
    def test_traces_lists_all_ten(self, capsys):
        assert main(["traces"]) == 0
        out = capsys.readouterr().out
        for name in ("dinero", "cscope3", "glimpse", "synth"):
            assert name in out
        assert "paper_reads" in out


class TestRun:
    def test_run_prints_breakdown(self, capsys):
        code = main([
            "run", "-t", "ld", "-p", "demand", "-d", "2",
            "--scale", "0.1", "--cache", "128",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "demand" in out
        assert "elapsed_s" in out

    def test_run_rejects_unknown_trace(self):
        with pytest.raises(SystemExit):
            main(["run", "-t", "nonesuch"])

    def test_run_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["run", "-t", "ld", "-p", "lru"])


class TestObservability:
    def test_trace_out_writes_perfetto_json(self, capsys, tmp_path):
        out_path = tmp_path / "run.trace.json"
        code = main([
            "run", "-t", "ld", "-p", "forestall", "-d", "2",
            "--scale", "0.1", "--cache", "128",
            "--trace-out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "stall attribution:" in out
        assert "ui.perfetto.dev" in out
        import json

        document = json.loads(out_path.read_text())
        assert document["traceEvents"]
        assert document["otherData"]["trace"] == "ld"

    def test_metrics_writes_jsonl(self, capsys, tmp_path):
        out_path = tmp_path / "run.jsonl"
        code = main([
            "run", "-t", "ld", "-p", "demand", "-d", "1",
            "--scale", "0.1", "--cache", "128", "--metrics", str(out_path),
        ])
        assert code == 0
        import json

        first = json.loads(out_path.read_text().splitlines()[0])
        assert first["type"] == "meta"

    def test_run_without_obs_flags_prints_no_attribution(self, capsys):
        code = main([
            "run", "-t", "ld", "-p", "demand", "-d", "1",
            "--scale", "0.1", "--cache", "128",
        ])
        assert code == 0
        assert "stall attribution:" not in capsys.readouterr().out

    def test_profile_json_to_stdout(self, capsys):
        code = main([
            "run", "-t", "ld", "-p", "demand", "-d", "1",
            "--scale", "0.1", "--cache", "128", "--profile-json", "-",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert '"phases"' in out
        assert '"total_ms"' in out

    def test_profile_json_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "profile.json"
        code = main([
            "run", "-t", "ld", "-p", "demand", "-d", "1",
            "--scale", "0.1", "--cache", "128",
            "--profile-json", str(out_path),
        ])
        assert code == 0
        import json

        payload = json.loads(out_path.read_text())
        assert set(payload) == {"phases", "total_ms", "samples", "overhead_ms"}


class TestReport:
    def test_report_prints_all_sections(self, capsys):
        code = main([
            "report", "-t", "ld", "-p", "forestall", "-d", "2",
            "--scale", "0.1", "--cache", "128", "--top", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for needle in (
            "stall attribution:", "disk utilization:",
            "counters (non-zero):", "stall episodes:",
        ):
            assert needle in out

    def test_report_accepts_fault_flags(self, capsys):
        code = main([
            "report", "-t", "ld", "-p", "forestall", "-d", "2",
            "--scale", "0.1", "--cache", "128",
            "--fault-error-rate", "0.05",
        ])
        assert code == 0
        assert "fault" in capsys.readouterr().out

    def test_report_exports_too(self, capsys, tmp_path):
        out_path = tmp_path / "report.trace.json"
        code = main([
            "report", "-t", "ld", "-p", "demand", "-d", "1",
            "--scale", "0.1", "--cache", "128",
            "--trace-out", str(out_path),
        ])
        assert code == 0
        assert out_path.exists()


class TestSweep:
    def test_sweep_runs_selected_policies(self, capsys):
        code = main([
            "sweep", "-t", "ld", "-p", "demand,fixed-horizon",
            "-d", "1,2", "--scale", "0.1", "--cache", "128",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fixed-horizon" in out
        assert out.count("demand") >= 2  # one row per disk count

    def test_fcfs_discipline_accepted(self, capsys):
        code = main([
            "run", "-t", "ld", "-p", "demand", "--scale", "0.1",
            "--cache", "128", "--discipline", "fcfs",
        ])
        assert code == 0


class TestParsing:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestServeFlags:
    @pytest.mark.parametrize("flag", [
        "--store-max-entries", "--rate-limit-per-s", "--rate-limit-burst",
    ])
    def test_removed_store_and_rate_flags_are_refused(self, flag, capsys):
        # The store is one append-only journal (no LRU bound) and the
        # per-peer rate limiter is gone: the flags are unknown options.
        with pytest.raises(SystemExit):
            main(["serve", flag, "1"])
        assert flag in capsys.readouterr().err


class TestFigure:
    def test_figure_renders_bars(self, capsys):
        code = main([
            "figure", "-t", "ld", "-d", "1,2", "--scale", "0.1",
            "--cache", "128", "-p", "fixed-horizon,aggressive",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "legend" in out
        assert "|" in out
        assert "1 disk" in out and "2 disks" in out


class TestCharacterize:
    def test_fingerprint_table(self, capsys):
        code = main(["characterize", "--traces", "ld", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sequentiality" in out
        assert "ld" in out


class TestHints:
    def test_hint_sensitivity_table(self, capsys):
        code = main([
            "hints", "-t", "ld", "-d", "2", "--scale", "0.1",
            "--cache", "128", "-p", "fixed-horizon",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "perfect" in out
        assert "25% missing" in out


class TestFaultFlags:
    def test_run_with_error_rate_reports_faults(self, capsys):
        code = main([
            "run", "-t", "ld", "-p", "demand", "-d", "2", "--scale", "0.1",
            "--cache", "128", "--fault-error-rate", "0.1",
            "--fault-seed", "3", "--fault-max-retries", "50",
        ])
        assert code == 0
        assert "faults=" in capsys.readouterr().out

    def test_run_with_kill_reports_degraded(self, capsys):
        code = main([
            "run", "-t", "ld", "-p", "demand", "-d", "2", "--scale", "0.1",
            "--cache", "128", "--fault-kill", "1@0",
        ])
        assert code == 0
        assert "DEGRADED" in capsys.readouterr().out

    def test_sweep_with_slow_window(self, capsys):
        code = main([
            "sweep", "-t", "ld", "-p", "demand,fixed-horizon", "-d", "2",
            "--scale", "0.1", "--cache", "128", "--fault-slow", "0:3",
        ])
        assert code == 0
        assert "fixed-horizon" in capsys.readouterr().out

    def test_malformed_slow_spec_rejected(self):
        with pytest.raises(SystemExit):
            main([
                "run", "-t", "ld", "--scale", "0.1",
                "--fault-slow", "nonsense",
            ])

    def test_malformed_kill_spec_rejected(self):
        with pytest.raises(SystemExit):
            main([
                "run", "-t", "ld", "--scale", "0.1",
                "--fault-kill", "0:5",
            ])


class TestFaultsCommand:
    def test_fault_sensitivity_table(self, capsys):
        code = main([
            "faults", "-t", "ld", "-d", "2", "--scale", "0.1",
            "--cache", "128", "-p", "demand,fixed-horizon",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "healthy" in out
        assert "10% errors" in out
        assert "disk 0 3x slow" in out


class TestExport:
    def test_export_text_round_trips(self, capsys, tmp_path):
        out = str(tmp_path / "ld.trace")
        code = main(["export", "-t", "ld", "--scale", "0.05", "-o", out])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        from repro.trace.io import load

        trace = load(out)
        assert trace.references > 0

    def test_export_json(self, tmp_path):
        out = str(tmp_path / "ld.json")
        assert main(["export", "-t", "ld", "--scale", "0.05", "-o", out]) == 0
        from repro.trace import Trace

        assert Trace.load(out).references > 0


class TestSplitList:
    def _split(self, *args, **kwargs):
        from repro.cli import _split_list

        return _split_list(*args, **kwargs)

    def test_strips_tokens_and_drops_empties(self):
        assert self._split("a, b,,c ,", "policies") == ["a", "b", "c"]

    def test_all_empty_rejected_with_option_name(self):
        with pytest.raises(SystemExit, match="--disks"):
            self._split(" , ,", "disks")

    def test_unknown_token_named_in_error(self):
        with pytest.raises(SystemExit, match="bogus"):
            self._split("demand,bogus", "policies",
                        allowed={"demand", "forestall"})

    def test_integer_variant_rejects_non_numbers(self):
        from repro.cli import _split_ints

        assert _split_ints("1, 2,4", "disks") == [1, 2, 4]
        with pytest.raises(SystemExit, match="'two'"):
            _split_ints("1,two", "disks")

    def test_sweep_rejects_unknown_policy(self, capsys):
        with pytest.raises(SystemExit, match="nope"):
            main(["sweep", "-t", "ld", "-p", "nope",
                  "-d", "1", "--scale", "0.05"])

    def test_sweep_tolerates_spaces_and_trailing_comma(self, capsys):
        code = main(["sweep", "-t", "ld", "-p", " demand , forestall ,",
                     "-d", " 1, 2 ", "--scale", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "demand" in out and "forestall" in out

    def test_characterize_rejects_unknown_trace(self):
        with pytest.raises(SystemExit, match="nosuch"):
            main(["characterize", "--traces", "ld,nosuch"])
