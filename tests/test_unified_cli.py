"""Tests for the unified ``python -m repro`` CLI (the one invocation surface)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import SUBCOMMANDS, main
from repro.service.cli import build_parser as build_service_parser

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_module(args, timeout=120):
    """Run ``python <args>`` from the repo root with src/ importable."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestDispatch:
    def test_no_arguments_prints_usage_and_fails(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        for name in SUBCOMMANDS:
            assert name in err

    def test_help_lists_every_subcommand(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in out

    def test_unknown_subcommand_fails(self, capsys):
        for name in ("frobnicate", "serving"):
            assert main([name]) == 2
            err = capsys.readouterr().err
            assert f"unknown subcommand {name!r}" in err
            assert "usage: python -m repro" in err

    def test_experiments_subcommand_delegates(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig-service" in out
        assert "fig-loss" in out

    def test_simtest_subcommand_delegates(self, capsys):
        assert main(["simtest", "--list-invariants"]) == 0
        assert "byte-conservation" in capsys.readouterr().out


class TestServiceOptions:
    """``--seed`` and ``--transport`` as the service parser defines them."""

    def test_defaults(self):
        args = build_service_parser().parse_args([])
        assert args.seed == 42
        assert args.transport == "inproc"

    def test_transport_udp_and_seed_parse(self):
        args = build_service_parser().parse_args(["--seed", "7", "--transport", "udp"])
        assert args.seed == 7
        assert args.transport == "udp"


class TestSubcommandHelp:
    """Every table entry resolves to a tool whose parser still loads."""

    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_help_exits_zero(self, name):
        result = _run_module(["-m", "repro", name, "--help"])
        assert result.returncode == 0, result.stderr
        assert "usage" in result.stdout


class TestPerfFrontDoor:
    """``python -m repro perf`` is the perf harness's only entry point."""

    def test_perf_help_lists_no_serving_or_service_flag(self):
        result = _run_module(["-W", "error::DeprecationWarning", "-m", "repro", "perf", "--help"])
        assert result.returncode == 0, result.stderr
        assert "--scale-smoke" in result.stdout
        # benchmarks/e2e is the one place serving and service are measured.
        for flag in ("--serving", "--serving-smoke", "--service", "--service-smoke", "--service-trace"):
            assert flag not in result.stdout
        # One cycle engine and one source of a trace: the flags that selected
        # or measured another are gone.
        for flag in (
            "--workers", "--executor", "--require-executor", "--worker-scaling",
            "--columnar", "--dataset-cache",
        ):
            assert flag not in result.stdout
        assert not (REPO_ROOT / "benchmarks" / "perf" / "__main__.py").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--sizes", "0"),
            ("--scale-smoke", "0"),
            ("--budget-seconds", "0"),
            ("--budget-seconds", "inf"),
            ("--max-regression", "-1"),
            # Without --scale-smoke there is no fragment to write.
            ("--fragment-output", "fragment.json"),
        ],
    )
    def test_a_bad_flag_value_is_a_usage_error(self, flag, value):
        """Rejected by the parser: exit 2 naming the flag, no traceback,
        nothing run -- as ``--macro-repeats 0`` already was."""
        result = _run_module(["-m", "repro", "perf", flag, value])
        assert result.returncode == 2, result.stderr
        assert flag in result.stderr
        assert "Traceback" not in result.stderr


class TestServiceEndToEnd:
    def test_demo_completes_queries_and_prints_recall_and_bytes(self, tmp_path):
        trace = tmp_path / "service.trace"
        result = _run_module(
            [
                "-m", "repro", "service", "--smoke",
                "--nodes", "15", "--queries", "2", "--seed", "5",
                "--deadline", "10", "--trace", str(trace),
            ],
            timeout=180,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "recall" in result.stdout
        assert "bytes on the wire" in result.stdout
        assert "invariants passed" in result.stdout
        assert trace.exists() and trace.stat().st_size > 0
