"""Unit tests for the harness CLI."""

import os
import subprocess
import sys

import pytest

import repro
from repro.harness import cli
from repro.harness.cli import main


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

    def test_table1_without_its_bench_fails(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setattr(cli, "BENCHMARKS", tmp_path)
        assert main(["table1"]) == 1
        assert "bench_table1_serializability.py" in capsys.readouterr().out
