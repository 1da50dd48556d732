"""``python -m repro``: the single front door to every runnable tool.

The repository has four entry points -- the figure experiments, the
simulation fuzzer, the performance harness and the asyncio service
runtime.  This module unifies them as subcommands::

    python -m repro experiments --list
    python -m repro simtest --seeds 50
    python -m repro perf --quick
    python -m repro service --demo

Each subcommand delegates to the tool's own ``main(argv)`` with the
remaining arguments, so every tool keeps its established flags.  This is
the only invocation surface of the ``repro`` package and of the perf
harness (``benchmarks/perf`` has no ``__main__``).
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional, Tuple


# --------------------------------------------------------------- subcommands


def _run_experiments(argv: List[str]) -> int:
    from .experiments.cli import main

    return main(argv)


def _run_simtest(argv: List[str]) -> int:
    from .simtest.cli import main

    return main(argv)


def _run_perf(argv: List[str]) -> int:
    try:
        from benchmarks.perf.harness import main
    except ImportError:
        print(
            "the perf harness needs the repository root on the import path "
            "(run from the repo root, where benchmarks/ lives)",
            file=sys.stderr,
        )
        return 2
    return main(argv)


def _run_service(argv: List[str]) -> int:
    from .service.cli import main

    return main(argv)


#: subcommand -> (one-line description, handler taking the remaining argv).
SUBCOMMANDS: Dict[str, Tuple[str, Callable[[List[str]], int]]] = {
    "experiments": (
        "regenerate the paper's tables and figures (repro.experiments)",
        _run_experiments,
    ),
    "simtest": (
        "deterministic simulation fuzzing with invariant checking (repro.simtest)",
        _run_simtest,
    ),
    "perf": (
        "performance-tracking benchmark harness (benchmarks.perf)",
        _run_perf,
    ),
    "service": (
        "live asyncio deployment speaking serialized frames (repro.service)",
        _run_service,
    ),
}


def _usage() -> str:
    lines = [
        "usage: python -m repro <subcommand> [options]",
        "",
        "subcommands:",
    ]
    for name, (description, _handler) in SUBCOMMANDS.items():
        lines.append(f"  {name:<12} {description}")
    lines.append("")
    lines.append("run 'python -m repro <subcommand> --help' for that tool's options")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv:
        print(_usage(), file=sys.stderr)
        return 2
    if argv[0] in ("-h", "--help"):
        print(_usage())
        return 0
    name, rest = argv[0], argv[1:]
    entry = SUBCOMMANDS.get(name)
    if entry is None:
        print(f"unknown subcommand {name!r}\n\n{_usage()}", file=sys.stderr)
        return 2
    _description, handler = entry
    return handler(rest)


if __name__ == "__main__":  # pragma: no cover - exercised via repro.__main__
    sys.exit(main())
