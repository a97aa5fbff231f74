"""Examples: every script compiles; the fast ones run end to end."""

import pathlib
import py_compile
import re
import runpy
import sys

import pytest

EXAMPLES = sorted(
    pathlib.Path(__file__).resolve().parent.parent.joinpath("examples").glob("*.py")
)


class TestExamplesCompile:
    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
    )
    def test_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    def test_all_examples_present(self):
        names = {p.stem for p in EXAMPLES}
        assert {
            "quickstart", "crossover_study", "custom_workload",
            "custom_policy", "shared_system", "write_behind",
            "observability", "cache_sizing",
        } <= names


class TestQuickstartRuns:
    def test_quickstart_end_to_end(self, monkeypatch, capsys):
        path = next(p for p in EXAMPLES if p.stem == "quickstart")
        monkeypatch.setattr(sys, "argv", [str(path), "ld", "2"])
        runpy.run_path(str(path), run_name="__main__")
        out = capsys.readouterr().out
        assert "demand" in out
        assert "forestall" in out
        assert "elapsed" in out


class TestObservabilityRuns:
    def test_observability_end_to_end(self, monkeypatch, capsys, tmp_path):
        """Each policy's stall episodes and per-disk busy lines come from
        its own Observer; the Perfetto file lands in the working
        directory."""
        path = next(p for p in EXAMPLES if p.stem == "observability")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", [str(path), "ld", "2"])
        runpy.run_path(str(path), run_name="__main__")
        sections = capsys.readouterr().out.split("\n\n")
        for policy in ("fixed-horizon", "forestall"):
            section = next(s for s in sections if s.startswith(policy))
            assert re.search(r"\n  elapsed .*, \d+ stall episodes totalling ",
                             section)
            assert "worst stall: block " in section
            for disk in (0, 1):
                assert re.search(
                    rf"\n  disk {disk}: \d+ fetches, \d+\.\d\ds of service\n",
                    section,
                )
        assert (tmp_path / "ld.trace.json").is_file()
