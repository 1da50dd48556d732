"""``python -m repro service``: run the live asyncio deployment.

Two modes share :func:`repro.service.demo.run_demo`:

* ``--demo`` -- a human-facing run printing recall, coverage, bytes by
  kind and the invariant audit;
* ``--smoke`` -- the CI gate: same run, but the exit status is nonzero
  unless at least one query completed, the run recorded wire events and
  the recorded trace passed the invariant checkers.  ``--trace`` dumps the
  trace as a binary trace file that ``ServiceTrace.load`` reads back
  (written before the audit, so a failing run still leaves the artifact).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from .demo import (
    DEFAULT_NUM_QUERIES,
    DEFAULT_NUM_USERS,
    DEFAULT_STORAGE,
    demo_succeeded,
    format_report,
    run_demo_sync,
)
from .runtime import WIRE_NAMES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro service",
        description="P3Q as a live asyncio service speaking serialized frames.",
    )
    parser.add_argument(
        "--demo", action="store_true", help="run the end-to-end demo and print the report"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="demo with a strict exit status (CI): fail unless >=1 query "
        "completed, the run touched the wire and the trace passed the "
        "invariant checkers",
    )
    parser.add_argument(
        "--nodes", type=int, default=DEFAULT_NUM_USERS, metavar="N",
        help=f"number of service nodes (default: {DEFAULT_NUM_USERS})",
    )
    parser.add_argument(
        "--queries", type=int, default=DEFAULT_NUM_QUERIES, metavar="N",
        help=f"number of queries to issue (default: {DEFAULT_NUM_QUERIES})",
    )
    parser.add_argument(
        "--storage", type=int, default=DEFAULT_STORAGE, metavar="C",
        help=f"profiles stored per node (default: {DEFAULT_STORAGE}; keep it "
        "below the personal-network size or queries never touch the wire)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SEC",
        help="per-query completion deadline in seconds (default: the "
        "ServiceConfig default)",
    )
    parser.add_argument(
        "--trace", type=str, default=None, metavar="FILE",
        help="dump the recorded WireEvent trace to FILE (binary records, "
        "read back by repro.service.ServiceTrace.load)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, metavar="S",
        help="master random seed (default: 42)",
    )
    parser.add_argument(
        "--transport", choices=list(WIRE_NAMES), default=WIRE_NAMES[0],
        help=f"message transport (default: {WIRE_NAMES[0]})",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (args.demo or args.smoke):
        parser.error("choose a mode: --demo (human run) or --smoke (CI gate)")
    if args.nodes < 3:
        parser.error("--nodes must be at least 3")
    if args.queries < 1:
        parser.error("--queries must be positive")
    if args.storage < 0:
        parser.error("--storage must not be negative")
    if args.deadline is not None and not (
        math.isfinite(args.deadline) and args.deadline > 0
    ):
        parser.error(
            f"--deadline must be a positive finite number, got {args.deadline!r}"
        )

    report = run_demo_sync(
        num_users=args.nodes,
        num_queries=args.queries,
        seed=args.seed,
        wire=args.transport,
        deadline=args.deadline,
        storage=args.storage,
        trace_path=args.trace,
    )
    print(format_report(report))
    if not demo_succeeded(report):
        if args.smoke:
            cause = (
                "no wire events recorded (every query was answered from local "
                "replicas; keep --storage below the personal-network size)"
                if report["wire_events"] == 0
                else f"invariant error: {report['invariant_error']!r}"
            )
            print(
                "service smoke FAILED: "
                f"{report['completed']}/{report['num_queries']} queries completed, "
                + cause,
                file=sys.stderr,
            )
            return 1
        if report["invariant_error"] is not None:
            return 1
    return 0

