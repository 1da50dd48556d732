"""Schema tests for the perf harness report (``benchmarks.perf``).

These pin the v9 report contract as the harness's one field table
(``REPORT_SECTIONS``) states it: macro entries report ``setup_seconds``
separately from the timed cycle loops, declare how the eager phase was
warmed, and carry the per-repeat rate samples behind the headline rate
together with the statistic that produced it.
``compare_reports`` guards the table's guarded fields (the macro cycles/sec
rates).  The fixture report is built from the same table, so a field is
named once.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.perf import (  # noqa: E402
    SCHEMA_VERSION,
    bench_macro,
    bench_scale_smoke,
    compare_reports,
    run_suite,
    validate_report,
)
from benchmarks.perf.harness import (  # noqa: E402
    NON_NEGATIVE,
    PHASE_BYTES,
    POSITIVE,
    REPORT_SECTIONS,
    SAMPLES,
)

#: One passing value per check of the field table.
_PASSING = {
    POSITIVE: 20.0,
    NON_NEGATIVE: 0.5,
    SAMPLES: [19.0, 20.0, 21.0],
    PHASE_BYTES: {"dataset": 100_000_000, "lazy": 150_000_000},
}


def _valid_entry(section) -> dict:
    entry = {
        field.name: field.check[0] if isinstance(field.check, tuple) else _PASSING[field.check]
        for field in section.fields
    }
    for field in section.fields:
        if field.spread:
            entry[field.spread[1]] = _PASSING[SAMPLES]
    return copy.deepcopy(entry)


def _valid_report() -> dict:
    """A report carrying every section of the table, keyed ones at two sizes."""
    report = {"schema_version": SCHEMA_VERSION, "quick": False}
    for section in REPORT_SECTIONS:
        report[section.name] = (
            {"100": _valid_entry(section), "10000": _valid_entry(section)}
            if section.keyed
            else _valid_entry(section)
        )
    return report


@pytest.fixture(scope="module")
def quick_report():
    return run_suite(quick=True)


class TestValidateReportV3:
    def test_valid_report_passes(self):
        assert validate_report(_valid_report()) == []

    def test_schema_version_is_9(self):
        assert SCHEMA_VERSION == 9

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
    """Per-phase peak RSS, and a real quick run against the table."""

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

    def test_quick_suite_produces_a_valid_report(self, quick_report):
        report = quick_report
        assert report["schema_version"] == SCHEMA_VERSION
        assert validate_report(report) == []
        assert isinstance(report["cpu_count"], int) and report["cpu_count"] >= 1


class TestFieldTable:
    """One table describes the fixture, a real run and the committed report."""

    def test_fixture_quick_run_and_committed_report_agree_with_the_table(self, quick_report):
        committed = json.loads((REPO_ROOT / "BENCH_p3q.json").read_text(encoding="utf-8"))
        for report in (_valid_report(), quick_report, committed):
            assert validate_report(report) == []
        # Every guarded field is one a real run produces: the guard can
        # never be comparing a name the harness stopped emitting.
        guarded = [
            (section, field)
            for section in REPORT_SECTIONS
            for field in section.fields
            if field.guard
        ]
        assert guarded
        for section, field in guarded:
            for entry in quick_report[section.name].values():
                assert field.name in entry
                assert all(name in entry for name in field.spread)
        stale = dict(committed, schema_version=8)
        assert validate_report(stale) == ["schema_version must be 9, got 8"]


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

    def test_front_door_writes_the_fragment_and_one_summary_line(self, tmp_path, capsys):
        from benchmarks.perf.harness import main

        fragment = tmp_path / "fragment.json"
        code = main(["--scale-smoke", "30", "--fragment-output", str(fragment)])
        assert code == 0
        payload = json.loads(fragment.read_text(encoding="utf-8"))
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["scale_smoke"]["num_nodes"] == 30
        # The one summary line names the peak RSS of every phase it measured.
        summary = capsys.readouterr().out.splitlines()[0]
        peaks = payload["scale_smoke"].get("peak_rss_bytes", {})  # POSIX only
        assert all(f"peak RSS after {phase} " in summary for phase in peaks)
        assert summary.count("KB/node") == len(peaks)

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
        current["macro"]["10000"]["eager_cycles_per_sec"] = 0.5  # was 20
        problems = compare_reports(current, baseline)
        assert any("macro[10000].eager_cycles_per_sec" in p for p in problems)

    def test_quick_full_mismatch_rejected(self):
        current, baseline = _valid_report(), _valid_report()
        current["quick"] = True
        assert compare_reports(current, baseline) == [
            "cannot compare a quick report against a full one"
        ]

    def test_v9_head_compares_against_a_v8_merge_base(self):
        """The perf-guard job compares the head's report against one the
        merge base generated: across the v8 -> v9 cut that baseline still
        carries the retired sections and per-entry keys, and the two guarded
        macro rates must still be compared."""
        baseline = _valid_report()
        baseline["schema_version"] = 8
        for entry in baseline["macro"].values():
            entry.update(workers=1, engine_executor="inline", pool_reuse_count=0)
        baseline["columnar"] = {"10000": {"probe_speedup": 0.9}}
        baseline["worker_scaling"] = {"10000": {"speedup": 0.52}}
        current = _valid_report()
        assert compare_reports(current, baseline) == []
        current["macro"]["100"]["lazy_cycles_per_sec"] = 10.0  # was 20
        current["macro"]["10000"]["eager_cycles_per_sec"] = 10.0
        problems = compare_reports(current, baseline)
        assert len(problems) == 2
        assert any("macro[100].lazy_cycles_per_sec" in p for p in problems)
        assert any("macro[10000].eager_cycles_per_sec" in p for p in problems)

    def test_malformed_guarded_field_is_a_problem_not_a_skip(self, tmp_path, capsys):
        from benchmarks.perf.harness import main

        current, baseline = _valid_report(), _valid_report()
        del current["macro"]["100"]["lazy_cycles_per_sec"]
        current["macro"]["10000"]["eager_cycles_per_sec"] = "fast"
        problems = compare_reports(current, baseline)
        assert any("macro[100].lazy_cycles_per_sec is missing" in p for p in problems)
        assert any("macro[10000].eager_cycles_per_sec" in p and "'fast'" in p for p in problems)
        # ...and the same through the front door the perf-guard job uses.
        head, base = tmp_path / "head.json", tmp_path / "base.json"
        head.write_text(json.dumps(current), encoding="utf-8")
        base.write_text(json.dumps(baseline), encoding="utf-8")
        assert main(["--compare", str(head), "--against", str(base)]) == 1
        assert "macro[100].lazy_cycles_per_sec" in capsys.readouterr().err
