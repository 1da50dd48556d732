"""Command-line entry point: regenerate any table / figure of the paper.

Examples::

    python -m repro experiments --list
    python -m repro experiments fig2 fig4
    python -m repro experiments table1 --scale tiny
    python -m repro experiments all --scale small --output results/
    python -m repro experiments all --workers 4
    python -m repro experiments fig-loss

Each experiment prints its rows/series as an aligned text table and, with
``--output``, also writes it to ``<output>/<experiment>.txt``.  With
``--workers N`` independent experiments fan out over N processes (each
worker rebuilds its seeded workload, so the reports are byte-identical to a
serial run).
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Dict, Optional

from .scenarios import ExperimentScale
from .runner import PreparedWorkload, prepare_workload, run_experiments_parallel
from . import (
    run_alpha_analysis,
    run_alpha_recall,
    run_aur_eager,
    run_aur_lazy,
    run_churn,
    run_convergence,
    run_exchange_ablation,
    run_free_rider_sweep,
    run_loss_sweep,
    run_partition_heal,
    run_network_update,
    run_serving_tradeoff,
    run_service_mode,
    run_query_bandwidth,
    run_random_view_ablation,
    run_selection_ablation,
    run_space_requirements,
    run_storage_recall,
    run_table1,
    run_table2,
    run_users_reached,
)

#: experiment name -> (description, needs_workload, runner)
#: Runners take (scale, workload_or_None) and return an object with .render().
EXPERIMENTS: Dict[str, tuple] = {
    "table1": (
        "Table 1: Poisson distribution of the storage budget c",
        False,
        lambda scale, _w: run_table1(num_users=max(1_000, scale.num_users)),
    ),
    "fig2": (
        "Figure 2: personal-network convergence in lazy mode",
        False,
        lambda scale, _w: run_convergence(scale, cycles=30, sample_every=5),
    ),
    "fig3": (
        "Figure 3: recall vs cycles for different alpha",
        True,
        lambda scale, w: run_alpha_recall(scale, cycles=20, workload=w),
    ),
    "fig4": (
        "Figure 4: recall vs cycles for different storage budgets",
        True,
        lambda scale, w: run_storage_recall(scale, cycles=10, workload=w),
    ),
    "fig5": (
        "Figure 5: per-user storage requirement",
        True,
        lambda scale, w: run_space_requirements(scale, workload=w),
    ),
    "fig6": (
        "Figure 6 / Section 3.5: query bandwidth",
        True,
        lambda scale, w: run_query_bandwidth(scale, cycles=12, workload=w),
    ),
    "table2": (
        "Table 2: influence of profile changes",
        True,
        lambda scale, w: run_table2(scale, workload=w),
    ),
    "fig7": (
        "Figure 7: average update rate in lazy mode",
        True,
        lambda scale, w: run_aur_lazy(scale, cycles=20, sample_every=5, workload=w),
    ),
    "fig8": (
        "Figure 8: users reached per query",
        True,
        lambda scale, w: run_users_reached(scale, cycles=12, workload=w),
    ),
    "fig9": (
        "Figure 9: average update rate in eager mode",
        True,
        lambda scale, w: run_aur_eager(scale, workload=w),
    ),
    "fig10": (
        "Figure 10: discovery of new ideal neighbours",
        True,
        lambda scale, w: run_network_update(scale, cycles=30, sample_every=5, workload=w),
    ),
    "fig11": (
        "Figure 11: impact of churn on recall",
        True,
        lambda scale, w: run_churn(scale, cycles=10, workload=w),
    ),
    "fig-loss": (
        "Loss sweep: recall and bandwidth under per-message packet loss",
        True,
        lambda scale, w: run_loss_sweep(scale, cycles=12, workload=w),
    ),
    "fig-serving": (
        "Serving tradeoff: latency and recall at coverage cutoffs",
        True,
        lambda scale, w: run_serving_tradeoff(scale, cycles=12, workload=w),
    ),
    "fig-service": (
        "Service mode: live asyncio runtime, recall and invariant audit",
        False,
        lambda scale, _w: run_service_mode(scale),
    ),
    "fig-partition": (
        "Partition and heal: recall and bandwidth across a network split",
        True,
        lambda scale, w: run_partition_heal(scale, cycles=12, workload=w),
    ),
    "fig-free-riders": (
        "Free-rider sweep: recall and bandwidth vs fraction of non-serving nodes",
        True,
        lambda scale, w: run_free_rider_sweep(scale, cycles=12, workload=w),
    ),
    "analysis": (
        "Section 2.4: R(alpha) closed form and bounds",
        False,
        lambda scale, _w: run_alpha_analysis(),
    ),
    "ablation-exchange": (
        "Ablation: 3-step exchange vs naive profile exchange",
        False,
        lambda scale, _w: run_exchange_ablation(scale),
    ),
    "ablation-random-view": (
        "Ablation: random-view layer contribution",
        False,
        lambda scale, _w: run_random_view_ablation(scale),
    ),
    "ablation-selection": (
        "Ablation: gossip partner selection policy",
        False,
        lambda scale, _w: run_selection_ablation(scale),
    ),
}


def resolve_scale(name: str) -> ExperimentScale:
    if name == "tiny":
        return ExperimentScale.tiny()
    if name == "paper":
        return ExperimentScale.paper()
    return ExperimentScale.small()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of 'Gossiping Personalized Queries'.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (see --list); 'all' runs every one of them",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    parser.add_argument(
        "--scale",
        choices=["tiny", "small", "paper"],
        default="small",
        help="experiment scale (default: small)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="directory where each experiment's report is also written",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="run independent experiments in N parallel processes (default: 1)",
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name, (description, _needs, _runner) in EXPERIMENTS.items():
            print(f"{name:<22} {description}")
        return 0

    names = list(args.experiments)
    if not names:
        parser.error("no experiment given (use --list to see the available ones)")
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    if args.workers < 1:
        parser.error("--workers must be positive")

    if args.workers > 1:
        runs = run_experiments_parallel(names, scale_name=args.scale, workers=args.workers)
        for run in runs:
            _emit(run.description, run.elapsed_seconds, run.report, run.name, args.output)
        return 0

    scale = resolve_scale(args.scale)
    workload: Optional[PreparedWorkload] = None
    if any(EXPERIMENTS[name][1] for name in names):
        workload = prepare_workload(scale)

    for name in names:
        description, needs_workload, runner = EXPERIMENTS[name]
        start = time.time()
        result = runner(scale, workload if needs_workload else None)
        elapsed = time.time() - start
        _emit(description, elapsed, result.render(), name, args.output)
    return 0


def _emit(description: str, elapsed: float, report: str, name: str, output: Optional[Path]) -> None:
    print(f"\n# {description}  [{elapsed:.1f}s]")
    print(report)
    if output is not None:
        output.mkdir(parents=True, exist_ok=True)
        (output / f"{name}.txt").write_text(report + "\n", encoding="utf-8")

