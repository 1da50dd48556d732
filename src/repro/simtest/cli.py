"""Driver: run batches of seeded fuzz scenarios and report minimal repros.

Examples::

    python -m repro simtest --seeds 50 --seed 0      # a fuzzing batch
    python -m repro simtest --spec-json '{...}'      # replay one failing spec
    python -m repro simtest --list-invariants
    python -m repro simtest --self-check             # prove the alarm rings

Output is deliberately free of timings and absolute paths so that two runs
of the same batch are byte-identical -- determinism of the *driver* is part
of the subsystem's contract, not just determinism of the simulations.

On the first failing scenario the driver performs greedy spec shrinking
(:mod:`repro.simtest.shrink`) and prints the minimal spec as JSON together
with the exact shell command that replays it, then exits non-zero.

``--self-check`` breaks the production byte pricing on purpose (a mutated
sizer for digest messages), expects the byte-conservation invariant to catch
it, and fails loudly if the harness stays silent -- a fuzzing harness whose
alarm never rings is indistinguishable from a green one.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional

from .invariants import REGISTRY
from .runner import ScenarioResult, run_scenario
from .shrink import shrink
from .spec import GeneratorRanges, ScenarioGenerator, ScenarioSpec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-simtest",
        description="Deterministic simulation fuzzing with invariant checking.",
    )
    parser.add_argument(
        "--seeds", type=int, default=20, metavar="N",
        help="number of scenarios to generate and run (default: 20)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="master seed of the scenario generator (default: 0)",
    )
    parser.add_argument(
        "--spec-json", type=str, default=None, metavar="JSON",
        help="run exactly one scenario given as a spec JSON string",
    )
    parser.add_argument(
        "--spec", type=Path, default=None, metavar="FILE",
        help="run exactly one scenario given as a spec JSON file",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report the raw failing spec without minimising it",
    )
    parser.add_argument(
        "--max-shrink-runs", type=int, default=48, metavar="N",
        help="budget of candidate runs during shrinking (default: 48)",
    )
    parser.add_argument(
        "--max-users", type=int, default=None, metavar="N",
        help="cap generated scenarios at N users (the PR fuzz smoke runs "
        "capped; the nightly batch runs uncapped and owns large-N coverage)",
    )
    parser.add_argument(
        "--adversarial", action="store_true",
        help="generate with the adversarial-weighted profile: partitions, "
        "asymmetric links, free riders, crash churn and community churn are "
        "sampled far more often (the nightly hostile-conditions batch)",
    )
    parser.add_argument(
        "--failure-artifact", type=Path, default=None, metavar="FILE",
        help="on failure, also write the minimal (shrunk) spec JSON to FILE "
        "so CI can upload it as a diagnosable artifact",
    )
    parser.add_argument(
        "--list-invariants", action="store_true",
        help="list the registered invariants and exit",
    )
    parser.add_argument(
        "--self-check", action="store_true",
        help="break the byte pricing on purpose and verify the harness catches it",
    )
    return parser


def _report_failure(result: ScenarioResult, args: argparse.Namespace) -> None:
    """Print the violation, shrink the spec and emit the minimal repro."""
    spec = result.spec
    print(f"violation: {result.violation}")
    if args.no_shrink:
        minimal = spec
        print("shrinking disabled (--no-shrink); raw failing spec:")
    else:
        print(f"shrinking (budget {args.max_shrink_runs} runs)...")

        def on_step(name: str, accepted: bool, runs: int) -> None:
            if accepted:
                print(f"  kept: {name} (run {runs})")

        shrunk = shrink(
            spec,
            result.invariant,
            max_runs=args.max_shrink_runs,
            on_step=on_step,
        )
        minimal = shrunk.spec
        print(
            f"minimal failing spec after {shrunk.runs} runs "
            f"(still violates {shrunk.invariant}):"
        )
        print(f"  {shrunk.result.violation}")
    print(minimal.to_json(indent=2))
    print("reproduce with:")
    print(f"  {minimal.repro_command()}")
    if args.failure_artifact is not None:
        args.failure_artifact.write_text(minimal.to_json(indent=2) + "\n", encoding="utf-8")
        print(f"minimal spec written to {args.failure_artifact}")


def _generator(args: argparse.Namespace) -> ScenarioGenerator:
    ranges = GeneratorRanges.adversarial() if args.adversarial else GeneratorRanges()
    if args.max_users is not None:
        ranges = ranges.capped(args.max_users)
    return ScenarioGenerator(args.seed, ranges)


def _run_batch(args: argparse.Namespace) -> int:
    generator = _generator(args)
    failures = 0
    run_count = 0
    for index in range(args.seeds):
        spec = generator.spec(index)
        result = run_scenario(spec)
        run_count += 1
        status = "ok  " if result.ok else "FAIL"
        print(f"[{index:3d}] {status} {spec.describe()}")
        if not result.ok:
            failures += 1
            _report_failure(result, args)
            break
    print(
        f"{run_count} scenario(s) run, {failures} failure(s); "
        f"invariants: {', '.join(sorted(REGISTRY))}"
    )
    return 1 if failures else 0


def _run_single(spec: ScenarioSpec, args: argparse.Namespace) -> int:
    result = run_scenario(spec)
    status = "ok  " if result.ok else "FAIL"
    print(f"[spec] {status} {spec.describe()}")
    if result.ok:
        print(f"invariants checked: {', '.join(result.checked)}")
        return 0
    _report_failure(result, args)
    return 1


@contextmanager
def broken_byte_pricing() -> Iterator[None]:
    """Deliberately corrupt the production pricing of digest messages.

    Used by ``--self-check`` (and the test suite) to prove the
    byte-conservation invariant actually fires: while active, every
    ``DigestAdvertisement`` is priced at a flat 7 bytes instead of
    ``num_digests * (DIGEST_BYTES + USER_ID_BYTES)``.
    """
    from ..gossip import sizes
    from ..simulator.transport import DigestAdvertisement

    original = sizes._MESSAGE_SIZERS[DigestAdvertisement]
    sizes._MESSAGE_SIZERS[DigestAdvertisement] = lambda m: 7
    try:
        yield
    finally:
        sizes._MESSAGE_SIZERS[DigestAdvertisement] = original


def _self_check(args: argparse.Namespace) -> int:
    print("self-check: corrupting DigestAdvertisement pricing (flat 7 bytes)")
    generator = _generator(args)
    with broken_byte_pricing():
        for index in range(args.seeds):
            spec = generator.spec(index)
            result = run_scenario(spec)
            if result.ok:
                continue
            if result.invariant != "byte-conservation":
                print(
                    f"self-check FAILED: scenario {index} violated "
                    f"{result.invariant!r} before byte-conservation could fire"
                )
                return 1
            print(f"[{index:3d}] caught: {result.violation}")
            _report_failure(result, args)
            print("self-check passed: the corrupted pricing was caught and shrunk")
            return 0
    print(
        f"self-check FAILED: {args.seeds} scenario(s) ran clean over corrupted "
        "byte pricing -- the byte-conservation invariant is not watching"
    )
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_invariants:
        for name, cls in sorted(REGISTRY.items()):
            summary = (cls.__doc__ or "").strip().splitlines()[0]
            print(f"{name:<22} {summary}")
        return 0

    if args.seeds < 1:
        parser.error("--seeds must be positive")
    if args.max_users is not None and args.max_users < 8:
        parser.error("--max-users must be at least 8")
    if args.spec_json is not None and args.spec is not None:
        parser.error("--spec-json and --spec are mutually exclusive")

    if args.self_check:
        return _self_check(args)

    if args.spec_json is not None or args.spec is not None:
        try:
            spec_text = args.spec_json
            if args.spec is not None:
                spec_text = args.spec.read_text(encoding="utf-8")
            spec = ScenarioSpec.from_json(spec_text)
        except (OSError, ValueError) as error:
            # An unreadable file, malformed JSON, a wrong type, an
            # out-of-range value or a field this commit does not have: a
            # usage error (exit 2), never the exit 1 of a found violation.
            print(error, file=sys.stderr)
            return 2
        return _run_single(spec, args)

    return _run_batch(args)

