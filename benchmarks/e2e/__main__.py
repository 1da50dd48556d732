"""``python -m benchmarks.e2e``: the one command of the benchmark.

* ``--workload W --seed S --seconds T --trace 0|1`` -- the contract of
  ``BENCHMARK.json``: run one workload in a fresh child, print every metric
  by name with its unit, and as the last line one JSON object with
  ``correct``, ``attempted``, ``failed`` and ``metrics``.
* no ``--workload`` -- all four workloads, one child each.
* ``--aa K`` -- two interleaved sets of K full runs of the same code, the
  A/A table of the README; exits non-zero when a spread or a gap between the
  two medians exceeds the metric's bound.

Exits non-zero when an output check fails or a child dies.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from . import ROOT, bootstrap_path, metrics

HERE = os.path.dirname(os.path.abspath(__file__))
#: A child that has not reported by then is killed (the contract's cap).
CHILD_TIMEOUT_S = 170


def parse_args(contract: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=metrics.workload_names(contract))
    parser.add_argument("--seed", type=int, default=17,
                        help="seed of the arrival order (default 17)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: run the last pass under the tracer, report per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--aa", type=int, metavar="K", default=0,
                        help="A/A check: two interleaved sets of K runs per workload")
    parser.add_argument("--child", type=float, metavar="SPAWNED", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -------------------------------------------------------------------- child


def child_main(args: argparse.Namespace) -> int:
    """Inside the fresh process: run the workload, print its report.

    Set-up time starts when the parent spawned this interpreter
    (``--child`` carries that wall-clock stamp) and includes importing the
    library.
    """
    bootstrap_path()
    from . import runner

    report = runner.run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.scale,
        import_s=time.time() - args.child,
        trace_dir=os.path.join(HERE, "out"),
    )
    print(json.dumps(report))
    return 0


# ------------------------------------------------------------------- parent


def run_child(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """One workload in a fresh interpreter; returns its report.

    ``subprocess.run`` waits for the child and kills it on timeout, so no
    process outlives this call.
    """
    command = [
        sys.executable, "-m", "benchmarks.e2e", "--child", str(time.time()),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", scale,
    ]
    environment = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, cwd=ROOT, env=environment, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def reported(contract: dict, report: dict, trace: int) -> dict:
    """The metric family the contract asks for: name -> {value, unit}."""
    values = report["per_layer" if trace else "untraced"]
    units = metrics.units(contract, "per_layer" if trace else "end_to_end")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def print_report(contract: dict, report: dict, trace: int) -> None:
    flags = "" if report["correct"] else "  OUTPUT CHECKS FAILED"
    if report["noisy"]:
        flags += "  noisy (calibration drifted during the run)"
    print(
        f"{report['workload']}  seed {report['seed']}  {report['passes']} timed passes, "
        f"{report['attempted']} queries attempted, {report['failed']} failed, "
        f"n={report['latency_samples']} latency samples{flags}"
    )
    for problem in report["problems"]:
        print(f"  check failed: {problem}")
    shown = reported(contract, report, trace)
    for name, entry in shown.items():
        print(f"  {name:<52} {entry['value']:>16.6g} {entry['unit']}")
    if not trace:
        # The speeds carry no bound (README, "Bounds") but are always measured.
        units = metrics.units(contract, "per_layer")
        for name, value in report["untraced"].items():
            if name not in shown:
                print(f"  {name:<52} {value:>16.6g} {units[name]}  (no bound)")


def contract_line(contract: dict, report: dict, trace: int) -> str:
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": reported(contract, report, trace),
        }
    )


def aa_check(args: argparse.Namespace, contract: dict) -> int:
    """Two interleaved sets of K runs; prints the A/A table, 1 on a miss.

    Like the driver, every run of a set has a seed of its own (``--seed``,
    ``--seed + 1``, ...); both sets use the same seeds.
    """
    misses = 0
    print("| workload | metric | median A | median B | gap | IQR/med A | IQR/med B | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in metrics.workload_names(contract):
        sets = ({}, {})
        for repeat in range(args.aa):
            # ABBA: neither set always runs first inside a pair.
            for side in ((0, 1) if repeat % 2 == 0 else (1, 0)):
                report = run_child(workload, args.seed + repeat, args.seconds, 0, args.scale)
                if not report["correct"]:
                    print(f"{workload}: output checks failed: {report['problems']}")
                    return 1
                for name, value in report["untraced"].items():
                    sets[side].setdefault(name, []).append(value)
        # The speeds are tabulated too: their spread is why they carry no bound.
        unbounded = [m for m in contract["per_layer"] if m["name"] in sets[0]]
        for metric in contract["end_to_end"] + unbounded:
            name, bound = metric["name"], metric.get("bound")
            a, b = sets[0][name], sets[1][name]
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = (median_b - median_a) / median_a * (1 if metric["better"] == "lower" else -1)
            spread_a, spread_b = metrics.spread(a), metrics.spread(b)
            # setup_s is held to the gap only, as the driver holds it.
            spread_miss = name != "setup_s" and max(spread_a, spread_b) > (bound or 1.0)
            miss = bound is not None and (abs(worse) > bound or spread_miss)
            misses += miss
            print(
                f"| {workload} | {name} | {median_a:.6g} | {median_b:.6g} | {worse:+.4f} | "
                f"{spread_a:.4f} | {spread_b:.4f} | {bound or 'none'}{' MISS' if miss else ''} |"
            )
    return 1 if misses else 0


def main(argv=None) -> int:
    contract = metrics.load_contract()
    args = parse_args(contract, argv)
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.child is not None:
        return child_main(args)
    if args.aa:
        return aa_check(args, contract)
    names = [args.workload] if args.workload else metrics.workload_names(contract)
    correct = True
    for name in names:
        report = run_child(name, args.seed, args.seconds, args.trace, args.scale)
        print_report(contract, report, args.trace)
        correct = correct and report["correct"]
    if args.workload:
        print(contract_line(contract, report, args.trace))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
