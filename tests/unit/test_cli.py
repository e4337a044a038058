"""Unit tests for the harness CLI."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.harness.cli import COMMANDS, main

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks/results"
#: Paper commands -> the results files their benches write, in order.
PAPER_RESULTS = {
    "table1": ["table1_serializability"],
    "table2": ["table2_sla_placement"],
    "fig8-9": ["fig8_recovery_rejections", "fig9_recovery_throughput"],
}


class TestCli:
    def test_table2_prints_table(self, capsys):
        code = main(["table2", "--databases", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Skew Factor" in out
        assert "Optimal Solution" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_duration_flag_parsed(self, capsys):
        code = main(["table2", "--databases", "6", "--seed", "9"])
        assert code == 0

    def test_table1_runs_from_any_working_directory(self, tmp_path):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "repro.harness", "table1"], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "Option 3" in done.stdout and "Aggressive" in done.stdout

    @pytest.mark.parametrize("command", PAPER_RESULTS)
    def test_prints_the_committed_results(self, command, capsys):
        """At default flags a paper command prints, below its banner,
        exactly what its bench commits under ``benchmarks/results/`` (one
        blank line between two files)."""
        assert main([command]) == 0
        banner = COMMANDS[command][1]
        out = capsys.readouterr().out
        assert out.startswith(banner + "\n")
        assert out[len(banner) + 1:] == "\n".join(
            (RESULTS / f"{name}.txt").read_text()
            for name in PAPER_RESULTS[command])
