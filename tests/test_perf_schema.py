"""Schema tests for the perf harness report (``benchmarks.perf``).

These pin the v5 report contract: everything v4 required -- macro entries
report ``setup_seconds`` separately from the timed cycle loops, declare how
the eager phase was warmed, carry the per-repeat rate samples behind
the headline rate together with the statistic that produced it, name the
engine executor that actually ran (``inline``/``pool``) with its
pool-reuse count, and the ``columnar`` / ``worker_scaling`` sections carry
positive throughput rates -- plus the ``serving`` section: per
``workload@concurrency`` cell, positive QPS, non-decreasing latency
percentiles, a positive completed count, coverage-at-cutoff in [0, 1],
and an optional positive peak-RSS byte count.  ``compare_reports`` guards
serving QPS and p95 latency when both reports carry the section.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.perf import (  # noqa: E402
    SCHEMA_VERSION,
    bench_macro,
    bench_scale_smoke,
    compare_reports,
    validate_report,
)


def _valid_report() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "quick": False,
        "digest": {
            "membership_ops_per_sec": 1e6,
            "membership_speedup": 5.0,
            "build_per_sec": 1e4,
        },
        "similarity": {"overlap_pairs_per_sec": 1e6, "overlap_speedup": 8.0},
        "macro": {
            "100": {
                "num_nodes": 100,
                "lazy_cycles_per_sec": 20.0,
                "lazy_rate_samples": [19.0, 20.0, 21.0],
                "eager_cycles_per_sec": 90.0,
                "eager_rate_samples": [88.0, 90.0, 92.0],
                "rate_stat": "median",
                "setup_seconds": 0.5,
                "eager_warm": "ideal",
                "engine_executor": "inline",
                "pool_reuse_count": 0,
            },
            "10000": {
                "num_nodes": 10000,
                "lazy_cycles_per_sec": 0.2,
                "lazy_rate_samples": [0.19, 0.2, 0.21],
                "eager_cycles_per_sec": 2.0,
                "eager_rate_samples": [1.9, 2.0, 2.1],
                "rate_stat": "median",
                "setup_seconds": 12.0,
                "eager_warm": "lazy",
                "engine_executor": "pool",
                "pool_reuse_count": 6,
                "peak_rss_bytes": {"dataset": 100_000_000, "lazy": 150_000_000},
            },
        },
        "columnar": {
            "10000": {
                "build_rows_per_sec": 9e4,
                "object_build_rows_per_sec": 8e4,
                "build_speedup": 1.1,
                "probe_ops_per_sec": 1.2e6,
                "object_probe_ops_per_sec": 1.1e6,
                "probe_speedup": 1.05,
            }
        },
        "worker_scaling": {
            "10000": {
                "workers": 2,
                "engine_executor": "pool",
                "serial_lazy_cycles_per_sec": 0.2,
                "sharded_lazy_cycles_per_sec": 0.3,
                "speedup": 1.5,
                "pool_reuse_count": 2,
            }
        },
        "serving": {
            "num_nodes": 300,
            "num_queries": 48,
            "network_size": 50,
            "seed": 17,
            "workloads": {
                "hot-topic@c4": _serving_cell("hot-topic", 4),
                "long-tail@c16": _serving_cell("long-tail", 16),
            },
        },
        "service": {
            "seed": 23,
            "frame_batch": 120,
            "codec": {
                "messages": {
                    "DigestAdvertisement": {"binary_fps": 42000.0},
                    "QueryForward": {"binary_fps": 45000.0},
                },
            },
            "demo": {
                "50": _service_demo_cell(50),
                "200": _service_demo_cell(200),
            },
        },
    }


def _service_demo_cell(num_users: int) -> dict:
    return {
        "num_users": num_users,
        "num_queries": 8,
        "completed": 8,
        "gossip_rounds": 400,
        "rounds_per_sec": 500.0,
        "rpc_count": 900,
        "rpc_p95_ms": 3.0,
        "wall_seconds": 0.8,
        "bytes_total": 1_000_000,
        "invariant_error": None,
    }


def _serving_cell(workload: str, concurrency: int) -> dict:
    return {
        "workload": workload,
        "concurrency": concurrency,
        "arrivals_per_cycle": max(1, concurrency // 2),
        "num_queries": 48,
        "completed": 48,
        "abandoned": 0,
        "rejected": 0,
        "cycles": 18,
        "qps_cycle": 2.5,
        "qps_wall": 120.0,
        "latency_p50": 6.0,
        "latency_p95": 6.0,
        "latency_p99": 7.0,
        "coverage_cutoff": 0.9,
        "coverage_at_cutoff": 1.0,
        "messages": 40_000,
        "messages_per_cycle": 2_222.2,
        "change_days_applied": 0,
        "wall_seconds": 0.4,
        "cpu_seconds": 0.4,
        "peak_rss_bytes": 70_000_000,
    }


class TestValidateReportV3:
    def test_valid_report_passes(self):
        assert validate_report(_valid_report()) == []

    def test_schema_version_is_7(self):
        assert SCHEMA_VERSION == 7

    def test_missing_rate_stat_rejected(self):
        report = _valid_report()
        del report["macro"]["100"]["rate_stat"]
        assert any("rate_stat" in p for p in validate_report(report))

    def test_missing_rate_samples_rejected(self):
        report = _valid_report()
        report["macro"]["100"]["lazy_rate_samples"] = []
        assert any("lazy_rate_samples" in p for p in validate_report(report))

    def test_old_schema_version_rejected(self):
        report = _valid_report()
        report["schema_version"] = 1
        assert any("schema_version" in p for p in validate_report(report))

    def test_missing_setup_seconds_rejected(self):
        report = _valid_report()
        del report["macro"]["100"]["setup_seconds"]
        problems = validate_report(report)
        assert any("setup_seconds" in p for p in problems)

    def test_negative_setup_seconds_rejected(self):
        report = _valid_report()
        report["macro"]["100"]["setup_seconds"] = -1.0
        assert any("setup_seconds" in p for p in validate_report(report))

    def test_unknown_eager_warm_rejected(self):
        report = _valid_report()
        report["macro"]["100"]["eager_warm"] = "cold"
        assert any("eager_warm" in p for p in validate_report(report))

    def test_missing_cycle_rates_still_rejected(self):
        report = _valid_report()
        report["macro"]["100"]["lazy_cycles_per_sec"] = 0
        assert any("lazy_cycles_per_sec" in p for p in validate_report(report))


class TestValidateReportV4:
    """The executor dimension: every macro entry says what actually ran."""

    def test_missing_engine_executor_rejected(self):
        report = _valid_report()
        del report["macro"]["100"]["engine_executor"]
        assert any("engine_executor" in p for p in validate_report(report))

    def test_unknown_engine_executor_rejected(self):
        report = _valid_report()
        report["macro"]["100"]["engine_executor"] = "threads"
        assert any("engine_executor" in p for p in validate_report(report))

    def test_missing_pool_reuse_count_rejected(self):
        report = _valid_report()
        del report["macro"]["100"]["pool_reuse_count"]
        assert any("pool_reuse_count" in p for p in validate_report(report))

    def test_negative_pool_reuse_count_rejected(self):
        report = _valid_report()
        report["macro"]["10000"]["pool_reuse_count"] = -1
        assert any("pool_reuse_count" in p for p in validate_report(report))

    def test_peak_rss_is_optional(self):
        report = _valid_report()
        del report["macro"]["10000"]["peak_rss_bytes"]
        assert validate_report(report) == []

    def test_malformed_peak_rss_rejected(self):
        report = _valid_report()
        report["macro"]["10000"]["peak_rss_bytes"] = {"lazy": -5}
        assert any("peak_rss_bytes" in p for p in validate_report(report))
        report["macro"]["10000"]["peak_rss_bytes"] = "big"
        assert any("peak_rss_bytes" in p for p in validate_report(report))

    def test_columnar_section_is_optional_but_validated(self):
        report = _valid_report()
        del report["columnar"]
        assert validate_report(report) == []
        report = _valid_report()
        report["columnar"]["10000"]["probe_ops_per_sec"] = 0
        assert any("probe_ops_per_sec" in p for p in validate_report(report))
        report = _valid_report()
        report["columnar"] = {}
        assert any("columnar" in p for p in validate_report(report))

    def test_worker_scaling_section_is_optional_but_validated(self):
        report = _valid_report()
        del report["worker_scaling"]
        assert validate_report(report) == []
        report = _valid_report()
        report["worker_scaling"]["10000"]["speedup"] = 0
        assert any("speedup" in p for p in validate_report(report))
        report = _valid_report()
        report["worker_scaling"]["10000"]["engine_executor"] = "magic"
        assert any("worker_scaling" in p and "engine_executor" in p
                   for p in validate_report(report))

    def test_quick_suite_produces_a_valid_report(self):
        from benchmarks.perf import run_suite

        report = run_suite(quick=True)
        assert report["schema_version"] == SCHEMA_VERSION
        assert validate_report(report) == []
        assert isinstance(report["cpu_count"], int) and report["cpu_count"] >= 1
        for entry in report["macro"].values():
            assert entry["engine_executor"] in ("inline", "pool")
            assert entry["pool_reuse_count"] >= 0
        assert report["columnar"]  # quick runs include the micro-benchmark
        assert report["serving"]["workloads"]  # ...and the serving sweep
        assert report["service"]["codec"]["messages"]  # ...and the service bench


class TestValidateReportV5:
    """The serving section: QPS, latency percentiles and coverage per cell."""

    def test_serving_section_is_optional(self):
        report = _valid_report()
        del report["serving"]
        assert validate_report(report) == []

    def test_empty_workloads_rejected(self):
        report = _valid_report()
        report["serving"]["workloads"] = {}
        assert any("serving.workloads" in p for p in validate_report(report))

    def test_nonpositive_qps_rejected(self):
        for key in ("qps_cycle", "qps_wall"):
            report = _valid_report()
            report["serving"]["workloads"]["hot-topic@c4"][key] = 0
            assert any(key in p for p in validate_report(report))

    def test_decreasing_percentiles_rejected(self):
        report = _valid_report()
        cell = report["serving"]["workloads"]["hot-topic@c4"]
        cell["latency_p95"] = 10.0  # above p99 (7.0)
        assert any("non-decreasing" in p for p in validate_report(report))

    def test_zero_completed_rejected(self):
        report = _valid_report()
        report["serving"]["workloads"]["hot-topic@c4"]["completed"] = 0
        assert any("completed" in p for p in validate_report(report))

    def test_out_of_range_coverage_rejected(self):
        report = _valid_report()
        report["serving"]["workloads"]["hot-topic@c4"]["coverage_at_cutoff"] = 1.2
        assert any("coverage_at_cutoff" in p for p in validate_report(report))

    def test_malformed_peak_rss_rejected_but_absent_ok(self):
        report = _valid_report()
        report["serving"]["workloads"]["hot-topic@c4"]["peak_rss_bytes"] = -1
        assert any("peak_rss_bytes" in p for p in validate_report(report))
        report = _valid_report()
        del report["serving"]["workloads"]["hot-topic@c4"]["peak_rss_bytes"]
        assert validate_report(report) == []


class TestCompareServing:
    """The serving guard: QPS drops and p95 jumps fail the comparison."""

    def test_qps_wall_regression_detected(self):
        current, baseline = _valid_report(), _valid_report()
        current["serving"]["workloads"]["hot-topic@c4"]["qps_wall"] = 60.0  # was 120
        problems = compare_reports(current, baseline, max_regression=0.10)
        assert any("serving[hot-topic@c4].qps_wall" in p for p in problems)

    def test_latency_p95_regression_detected(self):
        current, baseline = _valid_report(), _valid_report()
        current["serving"]["workloads"]["long-tail@c16"]["latency_p95"] = 9.0
        current["serving"]["workloads"]["long-tail@c16"]["latency_p99"] = 9.0
        problems = compare_reports(current, baseline, max_regression=0.10)
        assert any("serving[long-tail@c16].latency_p95" in p for p in problems)

    def test_within_tolerance_passes(self):
        current, baseline = _valid_report(), _valid_report()
        current["serving"]["workloads"]["hot-topic@c4"]["qps_wall"] = 115.0
        assert compare_reports(current, baseline, max_regression=0.10) == []

    def test_serving_absent_in_baseline_compares_macro_only(self):
        # A v4 baseline predating the serving sweep: the guard must not
        # fire, and macro regressions must still be caught.
        current, baseline = _valid_report(), _valid_report()
        del baseline["serving"]
        assert compare_reports(current, baseline) == []
        current["macro"]["100"]["lazy_cycles_per_sec"] = 10.0
        problems = compare_reports(current, baseline)
        assert any("macro[100].lazy_cycles_per_sec" in p for p in problems)


class TestValidateReportV6:
    """The service section: codec frames/sec and demo round throughput."""

    def test_service_section_is_optional(self):
        report = _valid_report()
        del report["service"]
        assert validate_report(report) == []

    def test_empty_codec_messages_rejected(self):
        report = _valid_report()
        report["service"]["codec"]["messages"] = {}
        assert any("service.codec.messages" in p for p in validate_report(report))

    def test_nonpositive_fps_rejected(self):
        report = _valid_report()
        report["service"]["codec"]["messages"]["QueryForward"]["binary_fps"] = 0
        assert any("binary_fps" in p for p in validate_report(report))

    def test_demo_without_completed_queries_rejected(self):
        report = _valid_report()
        report["service"]["demo"]["50"]["completed"] = 0
        assert any("completed" in p for p in validate_report(report))

    def test_demo_invariant_violation_rejected(self):
        report = _valid_report()
        report["service"]["demo"]["50"]["invariant_error"] = "bytes drifted"
        assert any("invariant" in p for p in validate_report(report))

    def test_nonpositive_rounds_per_sec_rejected(self):
        report = _valid_report()
        report["service"]["demo"]["200"]["rounds_per_sec"] = 0
        assert any("rounds_per_sec" in p for p in validate_report(report))


class TestCompareService:
    """The service guard: demo throughput drops and rpc p95 jumps fail."""

    def test_rounds_per_sec_regression_detected(self):
        current, baseline = _valid_report(), _valid_report()
        current["service"]["demo"]["50"]["rounds_per_sec"] = 250.0  # was 500
        problems = compare_reports(current, baseline, max_regression=0.10)
        assert any("service[50].rounds_per_sec" in p for p in problems)

    def test_rpc_p95_regression_detected(self):
        current, baseline = _valid_report(), _valid_report()
        current["service"]["demo"]["200"]["rpc_p95_ms"] = 6.0  # was 3.0
        problems = compare_reports(current, baseline, max_regression=0.10)
        assert any("service[200].rpc_p95_ms" in p for p in problems)

    def test_within_tolerance_passes(self):
        current, baseline = _valid_report(), _valid_report()
        current["service"]["demo"]["50"]["rounds_per_sec"] = 480.0
        assert compare_reports(current, baseline, max_regression=0.10) == []

    def test_service_absent_in_baseline_compares_without_guard(self):
        # A v5 baseline predating the service bench: the guard must not
        # fire, and macro regressions must still be caught.
        current, baseline = _valid_report(), _valid_report()
        del baseline["service"]
        assert compare_reports(current, baseline) == []
        current["macro"]["100"]["lazy_cycles_per_sec"] = 10.0
        problems = compare_reports(current, baseline)
        assert any("macro[100].lazy_cycles_per_sec" in p for p in problems)


class TestRequireExecutor:
    """CI guard: requested parallelism must not silently degrade to inline."""

    def test_suite_path_fails_fast_on_degradation(self):
        from benchmarks.perf.harness import main

        # Explicit inline can never satisfy a 'pool' requirement, on any
        # runner -- the check fires before the suite runs.
        assert main(["--workers", "2", "--executor", "inline",
                     "--require-executor", "pool"]) == 2

    def test_scale_smoke_reports_resolved_executor_and_fails(self, capsys):
        from benchmarks.perf.harness import main

        code = main([
            "--scale-smoke", "30", "--workers", "2",
            "--executor", "inline", "--require-executor", "pool",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "executor requirement FAILED" in captured.err
        assert "resolved to 'inline'" in captured.err

    def test_satisfied_requirement_passes(self, tmp_path):
        from benchmarks.perf.harness import main

        fragment = tmp_path / "fragment.json"
        code = main([
            "--scale-smoke", "30", "--workers", "1",
            "--require-executor", "inline",
            "--fragment-output", str(fragment),
        ])
        assert code == 0
        payload = json.loads(fragment.read_text(encoding="utf-8"))
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["scale_smoke"]["num_nodes"] == 30
        assert payload["scale_smoke"]["engine_executor"] == "inline"


class TestMacroSetupSplit:
    """The timing fix: setup must not leak into cycles/sec."""

    @pytest.fixture(scope="class")
    def entry(self):
        macro = bench_macro(
            sizes=(30,), lazy_cycles=2, num_queries=3, repeats=1, profile_phases=True
        )
        return macro["30"]

    def test_setup_reported_separately(self, entry):
        assert entry["setup_seconds"] >= 0
        assert entry["lazy_cycles_per_sec"] > 0
        assert entry["eager_cycles_per_sec"] > 0

    def test_phase_breakdown_present_with_profile(self, entry):
        phases = entry["phases"]
        for key in (
            "dataset_seconds",
            "build_seconds",
            "bootstrap_seconds",
            "warm_seconds",
            "lazy_seconds",
            "eager_seconds",
        ):
            assert phases[key] >= 0
        # Setup is exactly the non-cycle phases: the timed lazy/eager loops
        # must not be part of it.
        expected = (
            phases["dataset_seconds"]
            + phases["build_seconds"]
            + phases["bootstrap_seconds"]
            + phases["warm_seconds"]
        )
        assert entry["setup_seconds"] == pytest.approx(expected, abs=1e-3)

    def test_small_sizes_use_ideal_warm(self, entry):
        assert entry["eager_warm"] == "ideal"

    def test_large_sizes_use_lazy_warm(self):
        from benchmarks.perf.harness import LAZY_WARM_THRESHOLD

        assert LAZY_WARM_THRESHOLD <= 5000  # the scale sizes must qualify


class TestScaleSmoke:
    def test_smoke_runs_and_reports(self):
        result = bench_scale_smoke(size=40, budget_seconds=60.0, num_queries=2)
        assert result["num_nodes"] == 40
        assert result["within_budget"] is True
        for key in (
            "setup_seconds",
            "lazy_cycle_seconds",
            "eager_cycle_seconds",
            "cycle_seconds",
        ):
            assert result[key] >= 0

    def test_budget_violation_detected(self):
        result = bench_scale_smoke(size=40, budget_seconds=1e-9, num_queries=2)
        assert result["within_budget"] is False

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            bench_scale_smoke(size=0)
        with pytest.raises(ValueError):
            bench_scale_smoke(size=10, budget_seconds=0)


class TestMedianOfThree:
    """The perf-guard flakiness fix: median-of-N headline plus spread."""

    def test_three_repeats_report_the_median(self):
        import statistics

        macro = bench_macro(sizes=(30,), lazy_cycles=1, num_queries=2, repeats=3)
        entry = macro["30"]
        assert entry["rate_stat"] == "median"
        assert len(entry["lazy_rate_samples"]) == 3
        assert entry["lazy_cycles_per_sec"] == pytest.approx(
            statistics.median(entry["lazy_rate_samples"])
        )

    def test_two_repeats_keep_best(self):
        macro = bench_macro(sizes=(30,), lazy_cycles=1, num_queries=2, repeats=2)
        entry = macro["30"]
        assert entry["rate_stat"] == "best"
        assert entry["lazy_cycles_per_sec"] == pytest.approx(
            max(entry["lazy_rate_samples"])
        )

    def test_compare_failure_message_reports_spread(self):
        current, baseline = _valid_report(), _valid_report()
        current["macro"]["100"]["lazy_cycles_per_sec"] = 10.0
        current["macro"]["100"]["lazy_rate_samples"] = [9.0, 10.0, 11.0]
        problems = compare_reports(current, baseline, max_regression=0.10)
        assert problems
        message = next(p for p in problems if "macro[100].lazy_cycles_per_sec" in p)
        assert "spread 9.00..11.00" in message
        # The baseline's spread rides along too.
        assert "old median-of-3 spread 19.00..21.00" in message


class TestCompareReports:
    def test_regression_detected_on_shared_sizes(self):
        current, baseline = _valid_report(), _valid_report()
        current["macro"]["100"]["lazy_cycles_per_sec"] = 10.0  # was 20
        problems = compare_reports(current, baseline, max_regression=0.10)
        assert any("macro[100].lazy_cycles_per_sec" in p for p in problems)

    def test_n1000_style_extra_sizes_compare_when_shared(self):
        current, baseline = _valid_report(), _valid_report()
        current["macro"]["10000"]["eager_cycles_per_sec"] = 0.5  # was 2.0
        problems = compare_reports(current, baseline)
        assert any("macro[10000].eager_cycles_per_sec" in p for p in problems)

    def test_quick_full_mismatch_rejected(self):
        current, baseline = _valid_report(), _valid_report()
        current["quick"] = True
        assert compare_reports(current, baseline) == [
            "cannot compare a quick report against a full one"
        ]
