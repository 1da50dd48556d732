"""Micro and macro performance benchmarks writing ``BENCH_p3q.json``.

Three benchmark families:

* **digest** -- Bloom-filter construction and membership throughput of
  :class:`repro.bloom.BloomFilter` (its bits held as the wire row, its
  probes as cached per-key positions) versus the seed
  :class:`repro.bloom._legacy.LegacyBloomFilter` (per-probe ``hashlib``),
  at the paper's digest geometry (20 Kbit / 14 hashes, ~250-item profiles).
  A digest is built once per profile version, so ``build_per_sec`` is a
  set-up cost; ``key in bloom`` runs in a simulation only on the
  foreign-geometry fallback of :class:`repro.gossip.digest.DigestCache`;
* **similarity** -- profile-scoring throughput of the interned fast path
  (:func:`repro.similarity.overlap_score` on cached action-id sets) versus
  a naive baseline that rebuilds tuple sets per comparison, the seed's
  behaviour;
* **macro** -- end-to-end simulator cycles/sec (lazy gossip and eager query
  processing) at several network sizes.

The report format is versioned JSON described by one field table,
:data:`REPORT_SECTIONS`, read by :func:`validate_report` (the schema check
CI runs against the smoke report) and :func:`compare_reports` (the macro
throughput guard).  All numbers are best-of-``repeats`` wall-clock rates, so
background noise biases results low, never high.

Query-serving and service-mode performance are measured by the
``benchmarks/e2e`` workloads (one fresh process each) and nowhere else.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import sys
import time
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

SCHEMA_VERSION = 9
DEFAULT_REPORT_NAME = "BENCH_p3q.json"

#: Macro benchmark network sizes (the issue's N=100/500/1000 trajectory).
DEFAULT_MACRO_SIZES = (100, 500, 1000)
QUICK_MACRO_SIZES = (30,)
#: Large-N sizes exercised by ``--scale`` and the CI scale-smoke job.
SCALE_MACRO_SIZES = (5_000, 10_000, 100_000)
#: From this size on, the eager phase starts from lazy-built personal
#: networks instead of the offline ideal index: ``IdealNetworkIndex`` is
#: O(N^2) pairwise scoring, which is *setup*, and at N >= 2000 it would
#: dominate the benchmark's wall clock without measuring the simulator.
LAZY_WARM_THRESHOLD = 2_000
#: From this size on, macro entries run one timed lazy cycle and a single
#: repeat (a 100k-node cycle is tens of seconds; repeats would add minutes
#: of benchmark time without changing the story).
XL_SIZE_THRESHOLD = 50_000


def _record_peak_rss(peaks: Dict[str, int], phase: str) -> None:
    """Note the peak RSS observed by the end of ``phase`` (POSIX only): the
    cumulative high-water mark, not the phase's own allocation."""
    from repro.serving.resources import peak_rss_bytes

    rss = peak_rss_bytes()
    if rss is not None:
        peaks[phase] = rss


def _sim_config(size: int, seed: int):
    """The configuration every macro-style benchmark runs ``size`` nodes under."""
    from repro.p3q import P3QConfig

    return P3QConfig(
        network_size=max(10, min(50, size // 4)),
        storage=3,
        seed=seed,
    )


def _best_rate(operation: Callable[[], int], repeats: int) -> float:
    """Best observed rate (operations/second) over ``repeats`` timed runs.

    ``operation`` performs a batch of work and returns how many operations
    the batch contained.
    """
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        count = operation()
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, count / elapsed)
    return best


# --------------------------------------------------------------------- digest


def bench_digest(
    num_items: int = 250,
    num_probes: int = 2_000,
    repeats: int = 5,
    quick: bool = False,
) -> Dict[str, float]:
    """Bloom digest construction and membership throughput, new vs. legacy."""
    from repro.bloom import BloomFilter, clear_hash_cache
    from repro.bloom._legacy import LegacyBloomFilter

    if quick:
        num_probes = min(num_probes, 500)
        repeats = 2

    items = list(range(num_items))
    # Half members, half non-members: exercises both the early-exit negative
    # probe and the full k-probe positive path.
    half = num_probes // 2
    probes = [items[i % num_items] for i in range(half)]
    probes += list(range(num_items, num_items + half))

    def build_new() -> int:
        for _ in range(10):
            BloomFilter.from_items(items)
        return 10

    def build_legacy() -> int:
        for _ in range(10):
            LegacyBloomFilter.from_items(items)
        return 10

    new_filter = BloomFilter.from_items(items)
    legacy_filter = LegacyBloomFilter.from_items(items)

    def probe(bloom) -> Callable[[], int]:
        def run() -> int:
            hits = 0
            for key in probes:
                if key in bloom:
                    hits += 1
            # Members always hit (no false negatives); keeps the loop live.
            assert hits >= half
            return len(probes)

        return run

    clear_hash_cache()
    build_per_sec = _best_rate(build_new, repeats)
    membership_per_sec = _best_rate(probe(new_filter), repeats)
    legacy_build_per_sec = _best_rate(build_legacy, repeats)
    legacy_membership_per_sec = _best_rate(probe(legacy_filter), repeats)

    return {
        "num_items": num_items,
        "num_probes": len(probes),
        "build_per_sec": build_per_sec,
        "membership_ops_per_sec": membership_per_sec,
        "legacy_build_per_sec": legacy_build_per_sec,
        "legacy_membership_ops_per_sec": legacy_membership_per_sec,
        "build_speedup": build_per_sec / legacy_build_per_sec,
        "membership_speedup": membership_per_sec / legacy_membership_per_sec,
    }


# ----------------------------------------------------------------- similarity


def _naive_overlap(a, b) -> float:
    """The seed implementation of the overlap score.

    Copies both action sets (the seed's ``actions`` property returned a fresh
    ``frozenset`` per access) and intersects them with a Python-level
    comprehension, exactly like the pre-interning ``common_actions``.
    """
    actions_a = frozenset(iter(a))
    actions_b = frozenset(iter(b))
    if len(actions_a) > len(actions_b):
        actions_a, actions_b = actions_b, actions_a
    return float(len({action for action in actions_a if action in actions_b}))


def bench_similarity(
    num_users: int = 120,
    repeats: int = 5,
    quick: bool = False,
    seed: int = 7,
) -> Dict[str, float]:
    """All-pairs scoring throughput, interned fast path vs. naive baseline."""
    from repro.data import SyntheticConfig, generate_dataset
    from repro.similarity import cosine_score, jaccard_score, overlap_score

    if quick:
        num_users = min(num_users, 40)
        repeats = 2

    dataset = generate_dataset(SyntheticConfig(num_users=num_users, seed=seed))
    profiles = list(dataset.profiles())
    pairs = [
        (profiles[i], profiles[j])
        for i in range(len(profiles))
        for j in range(i + 1, len(profiles))
    ]

    def run_metric(metric) -> Callable[[], int]:
        def run() -> int:
            total = 0.0
            for a, b in pairs:
                total += metric(a, b)
            assert total >= 0.0
            return len(pairs)

        return run

    overlap_per_sec = _best_rate(run_metric(overlap_score), repeats)
    naive_per_sec = _best_rate(run_metric(_naive_overlap), repeats)

    return {
        "num_users": num_users,
        "num_pairs": len(pairs),
        "overlap_pairs_per_sec": overlap_per_sec,
        "naive_overlap_pairs_per_sec": naive_per_sec,
        "overlap_speedup": overlap_per_sec / naive_per_sec,
        "jaccard_pairs_per_sec": _best_rate(run_metric(jaccard_score), repeats),
        "cosine_pairs_per_sec": _best_rate(run_metric(cosine_score), repeats),
    }


# ---------------------------------------------------------------------- macro


def bench_macro(
    sizes: Sequence[int] = DEFAULT_MACRO_SIZES,
    lazy_cycles: int = 3,
    num_queries: int = 10,
    quick: bool = False,
    seed: int = 1,
    repeats: int = 2,
    profile_phases: bool = False,
) -> Dict[str, Dict[str, float]]:
    """End-to-end simulator throughput: lazy and eager cycles/sec per size.

    Each size runs ``repeats`` fresh simulations.  With three or more
    repeats the headline rate is the **median** of the per-repeat rates
    (robust against noisy CI runners in both directions; the perf guard
    runs this mode); with fewer it remains the best observed rate (noise
    biases low, never high).  The per-repeat samples are reported either
    way, so regressions can be judged against the spread.  Garbage is
    collected before every timed region so earlier benchmarks' heap
    pressure cannot leak into this one.

    Setup (dataset generation, node construction, view
    bootstrap, eager warm-up) is timed *separately* from the steady-state
    cycle loops and reported as ``setup_seconds`` -- cycles/sec measures
    cycles only, at every size.  Sizes at or above
    :data:`LAZY_WARM_THRESHOLD` warm the eager phase from the lazy-built
    personal networks (``eager_warm: "lazy"``) instead of the O(N^2)
    offline ideal index; sizes at or above :data:`XL_SIZE_THRESHOLD` run a
    single timed lazy cycle once.  With ``profile_phases``
    each size also carries a ``phases`` dict of per-phase wall-clock
    seconds (the ``--profile`` flag).
    """
    import gc

    from repro.data import QueryWorkloadGenerator, SyntheticConfig, generate_dataset
    from repro.p3q import P3QSimulation

    if quick:
        sizes = QUICK_MACRO_SIZES
        lazy_cycles = 2
        num_queries = 3
        repeats = 1

    results: Dict[str, Dict[str, float]] = {}
    for size in sizes:
        xl = size >= XL_SIZE_THRESHOLD
        size_lazy_cycles = 1 if xl else lazy_cycles
        size_repeats = 1 if xl else max(1, repeats)

        start = time.perf_counter()
        dataset = generate_dataset(SyntheticConfig(num_users=size, seed=seed))
        dataset_seconds = time.perf_counter() - start

        config = _sim_config(size, seed)
        ideal_warm = size < LAZY_WARM_THRESHOLD
        lazy_samples: List[float] = []
        eager_samples: List[float] = []
        eager_run = 0
        #: Per-repeat phase breakdowns, parallel to ``lazy_samples``.
        phase_runs: List[Dict[str, float]] = []
        peak_rss: Dict[str, int] = {}
        for _ in range(size_repeats):
            phases: Dict[str, float] = {"dataset_seconds": dataset_seconds}
            _record_peak_rss(peak_rss, "dataset")

            start = time.perf_counter()
            sim = P3QSimulation(dataset.copy(), config)
            phases["build_seconds"] = time.perf_counter() - start

            start = time.perf_counter()
            sim.bootstrap_random_views()
            phases["bootstrap_seconds"] = time.perf_counter() - start
            _record_peak_rss(peak_rss, "bootstrap")

            gc.collect()
            start = time.perf_counter()
            sim.run_lazy(size_lazy_cycles)
            lazy_elapsed = time.perf_counter() - start
            phases["lazy_seconds"] = lazy_elapsed
            _record_peak_rss(peak_rss, "lazy")

            # The eager phase needs populated personal networks with unstored
            # neighbours (that is where the remaining lists come from).  Small
            # sizes warm-start from the offline ideal networks like the
            # paper's query experiments; large sizes reuse the networks the
            # lazy phase just built (the ideal index is quadratic setup).
            start = time.perf_counter()
            if ideal_warm:
                sim.warm_start()
            workload = QueryWorkloadGenerator(dataset, seed=seed)
            queriers = dataset.user_ids[: min(num_queries, len(dataset))]
            queries = [workload.query_for(user_id=uid) for uid in queriers]
            sim.issue_queries(queries)
            phases["warm_seconds"] = time.perf_counter() - start

            gc.collect()
            start = time.perf_counter()
            # XL sizes keep the eager engine turning even when the one warm
            # lazy cycle left some queriers with nothing unstored to chase
            # (the scale gate does the same): the measured rate is then the
            # eager scheduling cost at population scale, never zero.
            run = sim.run_eager(cycles=50, stop_when_idle=not xl)
            eager_elapsed = time.perf_counter() - start
            phases["eager_seconds"] = eager_elapsed
            _record_peak_rss(peak_rss, "eager")
            if eager_elapsed > 0:
                eager_samples.append(run / eager_elapsed)
                eager_run = run
            if lazy_elapsed > 0:
                lazy_samples.append(size_lazy_cycles / lazy_elapsed)
                phase_runs.append(phases)

        # Headline selection: median sample with >= 3 repeats, best otherwise.
        use_median = len(lazy_samples) >= 3
        headline_lazy = median(lazy_samples) if use_median else max(lazy_samples, default=0.0)
        headline_eager = (
            median(eager_samples) if len(eager_samples) >= 3 else max(eager_samples, default=0.0)
        )
        # The reported breakdown describes the repeat whose lazy rate is the
        # headline (the closest sample, for an even-count median).
        if phase_runs:
            chosen = min(
                range(len(lazy_samples)),
                key=lambda i: abs(lazy_samples[i] - headline_lazy),
            )
            chosen_phases = phase_runs[chosen]
        else:
            chosen_phases = {"dataset_seconds": dataset_seconds}
        setup_seconds = (
            chosen_phases.get("dataset_seconds", dataset_seconds)
            + chosen_phases.get("build_seconds", 0.0)
            + chosen_phases.get("bootstrap_seconds", 0.0)
            + chosen_phases.get("warm_seconds", 0.0)
        )

        entry: Dict[str, float] = {
            "num_nodes": size,
            "lazy_cycles": size_lazy_cycles,
            "lazy_cycles_per_sec": headline_lazy,
            "lazy_rate_samples": [round(rate, 6) for rate in lazy_samples],
            "eager_cycles": eager_run,
            "eager_cycles_per_sec": headline_eager,
            "eager_rate_samples": [round(rate, 6) for rate in eager_samples],
            "rate_stat": "median" if use_median else "best",
            "node_cycles_per_sec": size * headline_lazy,
            "setup_seconds": round(setup_seconds, 6),
            "eager_warm": "ideal" if ideal_warm else "lazy",
        }
        if peak_rss:
            entry["peak_rss_bytes"] = peak_rss
        if profile_phases:
            entry["phases"] = {
                name: round(value, 6) for name, value in chosen_phases.items()
            }
        results[str(size)] = entry
    return results


# --------------------------------------------------------------- scale smoke


def bench_scale_smoke(
    size: int = 10_000,
    budget_seconds: float = 120.0,
    seed: int = 1,
    num_queries: int = 10,
) -> Dict[str, float]:
    """One lazy + one eager cycle at large N under a wall-clock budget.

    This is the CI scale gate: it proves the incremental runtime completes
    full cycles at production scale, and fails (``within_budget`` False)
    when the *steady-state* cycle time -- not the one-off setup -- exceeds
    the budget.  Set-up generates the trace, which builds every profile one
    user at a time; the simulation then holds all of them, so the peak RSS
    after set-up is profiles, nodes and views.  Returns the timing
    breakdown either way; the CLI exit code carries the verdict.
    """
    import gc

    from repro.data import QueryWorkloadGenerator, SyntheticConfig, generate_dataset
    from repro.p3q import P3QSimulation

    if size <= 0:
        raise ValueError("size must be positive")
    if not (math.isfinite(budget_seconds) and budget_seconds > 0):
        raise ValueError("budget_seconds must be a positive finite number")

    start = time.perf_counter()
    dataset = generate_dataset(SyntheticConfig(num_users=size, seed=seed))
    sim = P3QSimulation(dataset, _sim_config(size, seed))
    sim.bootstrap_random_views()
    setup_seconds = time.perf_counter() - start
    peak_rss: Dict[str, int] = {}
    _record_peak_rss(peak_rss, "setup")

    gc.collect()
    start = time.perf_counter()
    sim.run_lazy(1)
    lazy_seconds = time.perf_counter() - start
    _record_peak_rss(peak_rss, "lazy")

    workload = QueryWorkloadGenerator(dataset, seed=seed)
    queriers = dataset.user_ids[: min(num_queries, len(dataset))]
    sim.issue_queries([workload.query_for(user_id=uid) for uid in queriers])
    gc.collect()
    start = time.perf_counter()
    sim.run_eager(cycles=1, stop_when_idle=False)
    eager_seconds = time.perf_counter() - start
    _record_peak_rss(peak_rss, "eager")

    cycle_seconds = lazy_seconds + eager_seconds
    result = {
        "num_nodes": size,
        "setup_seconds": round(setup_seconds, 3),
        "lazy_cycle_seconds": round(lazy_seconds, 3),
        "eager_cycle_seconds": round(eager_seconds, 3),
        "cycle_seconds": round(cycle_seconds, 3),
        "budget_seconds": budget_seconds,
        "within_budget": cycle_seconds <= budget_seconds,
    }
    if peak_rss:
        result["peak_rss_bytes"] = peak_rss
    return result


# --------------------------------------------------------------------- report


def run_suite(
    quick: bool = False,
    sizes: Optional[Sequence[int]] = None,
    macro_repeats: int = 2,
    profile_phases: bool = False,
) -> Dict:
    """Run the full benchmark suite and return the report dictionary."""
    started = time.time()
    digest = bench_digest(quick=quick)
    similarity = bench_similarity(quick=quick)
    macro = bench_macro(
        sizes=sizes or DEFAULT_MACRO_SIZES,
        quick=quick,
        repeats=macro_repeats,
        profile_phases=profile_phases,
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "digest": digest,
        "similarity": similarity,
        "macro": macro,
        "wall_seconds": round(time.time() - started, 3),
    }


# The one description of the report: every field the schema check or the
# perf guard looks at is named here and nowhere else.  A check is a key of
# _CHECKS, or the tuple of values the field may take.
POSITIVE = "a positive number"
NON_NEGATIVE = "a non-negative number"
SAMPLES = "a non-empty list"
PHASE_BYTES = "absent or a map of phases to positive byte counts"
HIGHER = "higher"


def _is_number(value) -> bool:
    return isinstance(value, (int, float))


_CHECKS: Dict[str, Callable[[object], bool]] = {
    POSITIVE: lambda value: _is_number(value) and value > 0,
    NON_NEGATIVE: lambda value: _is_number(value) and value >= 0,
    SAMPLES: lambda value: isinstance(value, (list, tuple)) and bool(value),
    PHASE_BYTES: lambda value: value is None
    or isinstance(value, dict)
    and all(isinstance(count, int) and count > 0 for count in value.values()),
}


class Field(NamedTuple):
    name: str
    check: object
    #: ``HIGHER``: ``--compare`` fails when the field drops by more than the
    #: regression budget.  ``spread`` then names the fields holding the
    #: statistic behind the headline rate and its per-repeat samples, which
    #: the failure message quotes as the run-to-run spread.
    guard: Optional[str] = None
    spread: Tuple[str, str] = ()


class Section(NamedTuple):
    name: str
    keyed: bool  # one entry per size N, or (flat) the section is the entry
    fields: Tuple[Field, ...]


REPORT_SECTIONS = (
    Section("digest", keyed=False, fields=(
        Field("membership_ops_per_sec", POSITIVE),
        Field("membership_speedup", POSITIVE),
        Field("build_per_sec", POSITIVE),
    )),
    Section("similarity", keyed=False, fields=(
        Field("overlap_pairs_per_sec", POSITIVE),
        Field("overlap_speedup", POSITIVE),
    )),
    Section("macro", keyed=True, fields=(
        Field("lazy_cycles_per_sec", POSITIVE, HIGHER, ("rate_stat", "lazy_rate_samples")),
        Field("eager_cycles_per_sec", POSITIVE, HIGHER, ("rate_stat", "eager_rate_samples")),
        # Setup is reported separately from the timed cycle loops, so
        # cycles/sec provably measures cycles only.
        Field("setup_seconds", NON_NEGATIVE),
        Field("eager_warm", ("ideal", "lazy")),
        # The headline rate declares its statistic and carries the
        # per-repeat samples it was derived from.
        Field("rate_stat", ("median", "best")),
        Field("lazy_rate_samples", SAMPLES),
        Field("peak_rss_bytes", PHASE_BYTES),
    )),
)


def _entries(section: Section, report: Dict) -> Dict[str, Dict]:
    """``{label: entry}`` for a section of ``report``.  A malformed entry
    reads as an empty one, so each of its fields fails its own check."""
    payload = report.get(section.name)
    if not section.keyed:
        entries = {section.name: payload}
    elif isinstance(payload, dict):
        entries = {f"{section.name}[{key}]": entry for key, entry in payload.items()}
    else:
        entries = {}
    return {label: entry if isinstance(entry, dict) else {} for label, entry in entries.items()}


def validate_report(report: Dict) -> List[str]:
    """Schema-check a report; returns a list of problems (empty when valid)."""
    problems: List[str] = []
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    if report.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {SCHEMA_VERSION}, got {report.get('schema_version')!r}"
        )
    for section in REPORT_SECTIONS:
        if report.get(section.name) is None:
            problems.append(f"missing section {section.name!r}")
            continue
        entries = _entries(section, report)
        if not entries:
            problems.append(f"section {section.name!r} must be a non-empty object")
        for label, entry in entries.items():
            for field in section.fields:
                value = entry.get(field.name)
                if isinstance(field.check, tuple):
                    valid = value in field.check
                    expected = " or ".join(map(repr, field.check))
                else:
                    valid, expected = _CHECKS[field.check](value), field.check
                if not valid:
                    problems.append(f"{label}.{field.name} must be {expected}, got {value!r}")
    return problems


def compare_reports(
    current: Dict,
    baseline: Dict,
    max_regression: float = 0.10,
) -> List[str]:
    """The perf guard: current vs baseline on every guarded field.

    Returns one problem string per guarded field of :data:`REPORT_SECTIONS`
    (the macro cycles/sec rates), at every entry present in *both* reports,
    that regressed by more than ``max_regression`` -- or that the baseline
    carries and the current report lacks or carries as a non-number: a
    malformed head must not compare clean.  Quick (smoke) baselines are
    compared only against quick runs and vice versa -- mixing the two would
    compare different workloads.
    """
    problems: List[str] = []
    if current.get("quick") != baseline.get("quick"):
        return ["cannot compare a quick report against a full one"]
    for section in REPORT_SECTIONS:
        guarded = [field for field in section.fields if field.guard == HIGHER]
        if not guarded:
            continue
        new_entries, old_entries = _entries(section, current), _entries(section, baseline)
        shared = [label for label in new_entries if label in old_entries]
        if not shared:
            return [f"no common {section.name} sizes between the two reports"]
        for label, field in itertools.product(shared, guarded):
            new_entry, old_entry = new_entries[label], old_entries[label]
            old, new = old_entry.get(field.name), new_entry.get(field.name)
            if not _CHECKS[POSITIVE](old):
                continue
            if not _is_number(new):
                problems.append(
                    f"{label}.{field.name} is missing or not a number in the "
                    f"current report (got {new!r}, baseline {old:.2f})"
                )
            elif new < old * (1.0 - max_regression):
                message = (
                    f"{label}.{field.name} regressed {100 * (1 - new / old):.1f}% "
                    f"({old:.2f} -> {new:.2f}, budget {max_regression:.0%})"
                )
                # Spread context: on noisy runners the per-repeat samples
                # tell reviewers whether the regression exceeds run-to-run
                # variance or hides inside it.
                stat_field, samples_field = field.spread
                for side, entry in (("new", new_entry), ("old", old_entry)):
                    samples = entry.get(samples_field)
                    if _CHECKS[SAMPLES](samples):
                        message += (
                            f"; {side} {entry.get(stat_field, 'best')}-of-{len(samples)} "
                            f"spread {min(samples):.2f}..{max(samples):.2f}"
                        )
                problems.append(message)
    return problems


def write_report(report: Dict, path: Path) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_report(path: Path) -> Optional[Dict]:
    """The parsed report at ``path``, or ``None`` after saying why not."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{path}: unreadable report: {exc}", file=sys.stderr)
        return None


def _print_summary(report: Dict) -> None:
    digest = report["digest"]
    similarity = report["similarity"]
    print(
        f"digest: membership {digest['membership_ops_per_sec']:,.0f} ops/s "
        f"({digest['membership_speedup']:.1f}x vs hashlib), "
        f"build {digest['build_per_sec']:,.1f} filters/s "
        f"({digest['build_speedup']:.1f}x)"
    )
    print(
        f"similarity: overlap {similarity['overlap_pairs_per_sec']:,.0f} pairs/s "
        f"({similarity['overlap_speedup']:.1f}x vs naive)"
    )
    for size, entry in sorted(report["macro"].items(), key=lambda kv: int(kv[0])):
        print(
            f"macro N={size}: lazy {entry['lazy_cycles_per_sec']:.2f} cycles/s, "
            f"eager {entry['eager_cycles_per_sec']:.2f} cycles/s "
            f"({entry.get('rate_stat', 'best')}-of-{len(entry.get('lazy_rate_samples', [1]))}, "
            f"setup {entry.get('setup_seconds', 0):.2f}s, "
            f"warm={entry.get('eager_warm', 'ideal')})"
        )
        phases = entry.get("phases")
        if phases:
            breakdown = ", ".join(
                f"{name.removesuffix('_seconds')} {value:.3f}s"
                for name, value in phases.items()
            )
            print(f"  phases: {breakdown}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro perf",
        description="P3Q performance-tracking benchmark harness",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(DEFAULT_REPORT_NAME),
        help=f"where to write the JSON report (default: ./{DEFAULT_REPORT_NAME})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny smoke run (CI): one small network, few repeats",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help=f"macro network sizes (default: {' '.join(map(str, DEFAULT_MACRO_SIZES))})",
    )
    parser.add_argument(
        "--macro-repeats",
        type=int,
        default=2,
        metavar="N",
        help="best-of-N runs per macro size (default: 2; the perf guard uses more)",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help=f"also run the large-N macro sizes {SCALE_MACRO_SIZES}",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record per-phase wall-clock timings (dataset/build/bootstrap/"
        "warm/lazy/eager) in every macro entry and print them",
    )
    parser.add_argument(
        "--scale-smoke",
        type=int,
        default=None,
        metavar="N",
        help="run one lazy + one eager cycle at N nodes and exit non-zero "
        "if the cycle time exceeds --budget-seconds (no report written)",
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="steady-state cycle budget for --scale-smoke (default: 120)",
    )
    parser.add_argument(
        "--fragment-output",
        type=Path,
        default=None,
        metavar="PATH",
        help="with --scale-smoke: also write the timing breakdown as a "
        "JSON fragment (uploaded as a CI artifact)",
    )
    parser.add_argument(
        "--validate",
        type=Path,
        default=None,
        metavar="REPORT",
        help="validate an existing report file and exit (no benchmarks run)",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="REPORT",
        help="compare an existing report's guarded macro rates against --against and exit",
    )
    parser.add_argument(
        "--against",
        type=Path,
        default=Path(DEFAULT_REPORT_NAME),
        metavar="BASELINE",
        help=f"baseline report for --compare (default: ./{DEFAULT_REPORT_NAME})",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.10,
        metavar="FRACTION",
        help="allowed macro cycles/sec regression for --compare (default: 0.10)",
    )
    args = parser.parse_args(argv)
    # Bad values are usage errors (exit 2, the flag named), never a
    # traceback from deep inside a run or a comparison against a nonsense
    # budget.  An infinite budget could never fail the gate.
    if args.sizes is not None and min(args.sizes) < 1:
        parser.error("--sizes must be positive")
    if args.macro_repeats < 1:
        parser.error("--macro-repeats must be positive")
    if args.scale_smoke is not None and args.scale_smoke < 1:
        parser.error("--scale-smoke must be positive")
    if not (math.isfinite(args.budget_seconds) and args.budget_seconds > 0):
        parser.error("--budget-seconds must be a positive finite number")
    if args.fragment_output is not None and args.scale_smoke is None:
        parser.error("--fragment-output needs --scale-smoke")
    if not 0.0 <= args.max_regression < 1.0:
        parser.error("--max-regression must be a fraction in [0, 1)")

    if args.scale_smoke is not None:
        result = bench_scale_smoke(
            size=args.scale_smoke,
            budget_seconds=args.budget_seconds,
        )
        if args.fragment_output is not None:
            fragment = {"schema_version": SCHEMA_VERSION, "scale_smoke": result}
            write_report(fragment, args.fragment_output)
        peaks = result.get("peak_rss_bytes", {})
        print(
            f"scale smoke N={result['num_nodes']}: "
            f"setup {result['setup_seconds']:.1f}s, "
            f"lazy cycle {result['lazy_cycle_seconds']:.1f}s, "
            f"eager cycle {result['eager_cycle_seconds']:.1f}s "
            f"(budget {result['budget_seconds']:.0f}s)"
            + "".join(
                f", peak RSS after {phase} {rss / 1e6:.0f} MB"
                f" ({rss / result['num_nodes'] / 1e3:.1f} KB/node)"
                for phase, rss in peaks.items()
            )
        )
        if not result["within_budget"]:
            print(
                f"scale smoke FAILED: {result['cycle_seconds']:.1f}s of cycle time "
                f"exceeds the {result['budget_seconds']:.0f}s budget",
                file=sys.stderr,
            )
            return 1
        print("scale smoke ok")
        return 0

    if args.compare is not None:
        current, baseline = _load_report(args.compare), _load_report(args.against)
        if current is None or baseline is None:
            return 1
        problems = compare_reports(current, baseline, max_regression=args.max_regression)
        if problems:
            for problem in problems:
                print(f"{args.compare} vs {args.against}: {problem}", file=sys.stderr)
            return 1
        print(
            f"{args.compare}: no macro regression beyond "
            f"{args.max_regression:.0%} of {args.against}"
        )
        return 0

    if args.validate is not None:
        report = _load_report(args.validate)
        if report is None:
            return 1
        problems = validate_report(report)
        if problems:
            for problem in problems:
                print(f"{args.validate}: {problem}", file=sys.stderr)
            return 1
        print(f"{args.validate}: valid (schema v{report['schema_version']})")
        return 0

    sizes = args.sizes
    if args.scale:
        # dict.fromkeys dedupes while preserving order: a size listed both
        # in --sizes and in the scale set must not run (minutes) twice.
        sizes = tuple(dict.fromkeys(tuple(sizes or DEFAULT_MACRO_SIZES) + SCALE_MACRO_SIZES))
    report = run_suite(
        quick=args.quick,
        sizes=sizes,
        macro_repeats=args.macro_repeats,
        profile_phases=args.profile,
    )
    write_report(report, args.output)
    _print_summary(report)
    print(f"report written to {args.output}")
    return 0
