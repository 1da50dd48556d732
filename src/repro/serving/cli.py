"""``python -m repro serving``: one query-serving run over a warm simulation.

A thin command-line front on :func:`repro.serving.driver.run_serving`: build
a catalogue workload (``hot-topic`` / ``long-tail`` / ``mixed``) over an
experiment-scale dataset, drive it through a converged simulation and print
the serving measurements (QPS, latency percentiles, outcome counts).  This
entry point is for looking at a single run quickly; serving performance is
gated by the ``benchmarks/e2e`` workloads.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..experiments.runner import converged_simulation, prepare_workload
from ..experiments.scenarios import ExperimentScale
from .driver import ServingConfig, run_serving
from .workloads import WORKLOADS, build_workload


def build_parser() -> argparse.ArgumentParser:
    from ..cli import add_common_options

    parser = argparse.ArgumentParser(
        prog="repro serving",
        description="Drive one query-serving workload through a converged simulation.",
    )
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        default="mixed",
        help="catalogue workload shape (default: mixed)",
    )
    parser.add_argument(
        "--scale",
        choices=["tiny", "small"],
        default="tiny",
        help="dataset scale (default: tiny)",
    )
    parser.add_argument(
        "--queries", type=int, default=12, metavar="N",
        help="number of queries in the workload (default: 12)",
    )
    parser.add_argument(
        "--storage", type=int, default=3, metavar="C",
        help="profiles stored per node (default: 3)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=8, metavar="N",
        help="maximum simultaneously open sessions (default: 8)",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=200, metavar="N",
        help="hard stop for the driver (default: 200)",
    )
    add_common_options(parser, workers=False, seed_default=None)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.queries < 1:
        parser.error("--queries must be positive")

    scale = ExperimentScale.tiny() if args.scale == "tiny" else ExperimentScale.small()
    if args.seed is not None:
        from dataclasses import replace

        scale = replace(scale, seed=args.seed)
    prepared = prepare_workload(scale)
    simulation = converged_simulation(prepared, storage=args.storage)
    workload = build_workload(
        args.workload, prepared.dataset, args.queries, seed=scale.seed
    )
    config = ServingConfig(concurrency=args.concurrency, max_cycles=args.max_cycles)
    result = run_serving(simulation, workload, config)

    print(f"serving run: workload={args.workload} scale={args.scale} "
          f"storage={args.storage} concurrency={args.concurrency}")
    for key, value in sorted(result.as_dict().items()):
        if isinstance(value, float):
            print(f"  {key}: {value:.4f}")
        else:
            print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the unified CLI
    sys.exit(main())
