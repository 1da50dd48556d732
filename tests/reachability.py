"""Reachability census of ``src/repro``: every def some entry point runs.

Runs every user-facing entry point of the repository -- the four
``python -m repro`` tools, the end-to-end benchmark and every example --
under ``sys.setprofile`` and records each ``src/repro`` code object that
was called.  It then parses every ``def`` in ``src/repro`` with ``ast``
and exits 1 if a def was never called and is not on ``ALLOWLIST``,
printing the file, line and qualified name of each one::

    python tests/reachability.py

It takes no options and is not a pytest module (the name does not match
``test_*.py``).  The hook is installed in every interpreter through a
generated ``sitecustomize`` on ``PYTHONPATH``, so the children of
``benchmarks.e2e`` are counted too; forked ``multiprocessing`` workers
inherit it.  Each code object is appended to one log the moment it is
first seen, because forked workers leave by ``os._exit`` and run no exit
hook.

Each allowlist entry names one def and one of four reasons:

- ``FLAG``: a CLI flag or value reaches it that the census does not run
  (``--scale small`` / ``--scale paper``, the figure benchmarks);
- ``SAFETY``: the tier-1 test id that exercises its safety path;
- ``REFERENCE``: a reference implementation a named test compares against;
- ``BENCHMARK``: ``benchmarks/e2e`` (or a CI step) imports or patches it.

Being "public API" is not a reason.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

FLAG = "flag"
SAFETY = "safety"
REFERENCE = "reference"
BENCHMARK = "benchmark"
REASONS = (FLAG, SAFETY, REFERENCE, BENCHMARK)

_FIGURES = "the figure benchmarks (pytest benchmarks), which write results/*.txt"
_TRACE_LOAD = "reached only through ServiceTrace.load"

#: "path relative to src/repro:qualified name" -> (reason, what names it).
ALLOWLIST: Dict[str, Tuple[str, str]] = {
    "experiments/scenarios.py:ExperimentScale.small": (FLAG, "--scale small"),
    "experiments/scenarios.py:ExperimentScale.paper": (FLAG, "--scale paper"),
    "experiments/ablations.py:RandomViewAblationResult.final_gap": (FLAG, _FIGURES),
    "experiments/analysis_alpha.py:AlphaAnalysisResult.closed_form": (FLAG, _FIGURES),
    "experiments/analysis_alpha.py:AlphaAnalysisResult.simulated": (FLAG, _FIGURES),
    "experiments/analysis_alpha.py:AlphaAnalysisResult.best_alpha": (FLAG, _FIGURES),
    "experiments/fig10_network_update.py:NetworkUpdateResult.final_fraction": (FLAG, _FIGURES),
    "experiments/fig11_churn.py:ChurnResult.final_recall": (FLAG, _FIGURES),
    "experiments/fig2_convergence.py:ConvergenceResult.final_ratio": (FLAG, _FIGURES),
    "experiments/fig4_storage_recall.py:StorageRecallResult.recall_at": (FLAG, _FIGURES),
    "experiments/fig4_storage_recall.py:StorageRecallResult.final_recall": (FLAG, _FIGURES),
    "experiments/fig7_aur_lazy.py:AurLazyResult.final_aur": (FLAG, _FIGURES),
    "experiments/fig9_aur_eager.py:AurEagerResult.final_aur": (FLAG, _FIGURES),
    "service/codec.py:BinaryWireCodec.abort_sent": (
        SAFETY, "tests/test_wire_codec.py::TestDigestSuppression::"
        "test_uncommitted_sends_are_not_suppressed",
    ),
    "service/runtime.py:RpcDeadlines._expire": (
        SAFETY, "tests/test_service_rpc.py::TestTimeoutPath::"
        "test_unanswered_request_resolves_dropped_at_the_deadline_and_is_traced_once",
    ),
    "service/codec.py:BinaryWireCodec.forget_sent": (
        SAFETY, "tests/test_service_rpc.py::TestTimedOutRequestForgetsItsLink::"
        "test_next_encode_after_a_lost_seeding_frame_carries_full_rows",
    ),
    "service/codec.py:BinaryWireCodec.decode_message": (
        SAFETY, "tests/test_wire_codec.py::TestBinaryMalformedFrames::"
        "test_trailing_bytes_rejected",
    ),
    "p3q/node.py:P3QNode._restore_issue_order": (
        SAFETY, "tests/test_memory_model.py::TestFinishedSessionsRetire::"
        "test_retired_session_revives_in_issue_order",
    ),
    "gossip/digest.py:DigestCache._clear_common": (
        SAFETY, "tests/test_memory_model.py::TestOneSmallObjectPerPairValue::"
        "test_value_table_empties_with_the_memo",
    ),
    "bloom/_legacy.py:LegacyBloomFilter.approximate_count": (
        REFERENCE, "tests/test_bloom_equivalence.py::TestBehaviouralEquivalence::"
        "test_identical_accounting",
    ),
    "bloom/_legacy.py:LegacyBloomFilter.size_in_bytes": (
        REFERENCE, "tests/test_bloom_equivalence.py::TestBehaviouralEquivalence::"
        "test_identical_accounting",
    ),
    "data/models.py:UserProfile.actions": (
        REFERENCE, "tests/test_data_models.py::TestProfileAgainstNaiveModel::"
        "test_random_interleavings_match_the_reference",
    ),
    "data/models.py:UserProfile.actions_for_items": (
        REFERENCE, "tests/test_similarity_interning.py::TestScoreEquivalence::"
        "test_lazy_exchange_partial_scoring_matches",
    ),
    "gossip/digest.py:DigestCache.record_pricing": (
        BENCHMARK, "benchmarks/e2e/workloads.py TracedRegion",
    ),
    "topk/incremental.py:IncrementalNRA.sequential_accesses": (
        BENCHMARK, "benchmarks/e2e/tracer.py install",
    ),
    "service/trace.py:ServiceTrace.load": (
        BENCHMARK, "CI service-smoke job, step 'Reload the wire trace'",
    ),
    "data/models.py:UserProfile.from_state": (BENCHMARK, _TRACE_LOAD),
}

#: The entry points, each run in a fresh interpreter from the repository
#: root.  ``{tmp}`` is a scratch directory; ``{spec}`` / ``{spec_json}`` are
#: one generated scenario spec as a file / a string.
ENTRY_POINTS: List[List[str]] = [
    ["-m", "repro", "--help"],
    ["-m", "repro", "experiments", "--list"],
    ["-m", "repro", "experiments", "all", "--scale", "tiny", "--output", "{tmp}/experiments"],
    ["-m", "repro", "experiments", "fig2", "fig5", "--scale", "tiny", "--workers", "2"],
    ["-m", "repro", "service", "--demo"],
    ["-m", "repro", "service", "--smoke", "--trace", "{tmp}/service.trace"],
    ["-m", "repro", "service", "--demo", "--transport", "udp"],
    ["-m", "repro", "simtest", "--list-invariants"],
    ["-m", "repro", "simtest", "--seeds", "5", "--max-users", "100"],
    ["-m", "repro", "simtest", "--seeds", "50", "--seed", "0"],
    ["-m", "repro", "simtest", "--seeds", "50", "--seed", "0", "--adversarial"],
    ["-m", "repro", "simtest", "--self-check", "--seeds", "5"],
    ["-m", "repro", "simtest", "--spec", "{spec}"],
    ["-m", "repro", "simtest", "--spec-json", "{spec_json}"],
    ["-m", "repro", "perf", "--quick", "--output", "{tmp}/quick.json"],
    ["-m", "repro", "perf", "--quick", "--profile", "--sizes", "100",
     "--output", "{tmp}/sizes.json"],
    ["-m", "repro", "perf", "--validate", "{tmp}/quick.json"],
    ["-m", "repro", "perf", "--compare", "{tmp}/quick.json", "--against", "{tmp}/quick.json"],
    ["-m", "repro", "perf", "--scale-smoke", "300", "--fragment-output", "{tmp}/fragment.json"],
    ["-m", "benchmarks.e2e", "--scale", "smoke"],
] + [[str(path)] for path in sorted((ROOT / "examples").glob("*.py"))]

#: The hook every interpreter of the census imports at start-up.
HOOK = '''\
import os, sys, threading

_PREFIX = {prefix!r}
_LOG = os.open({log!r}, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
_seen = set()


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_PREFIX):
                os.write(_LOG, f"{{code.co_filename}}\\t{{code.co_firstlineno}}\\n".encode())


sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def _is_protocol(node: ast.ClassDef) -> bool:
    """A ``typing.Protocol`` class: its method stubs declare, they never run."""
    for base in node.bases:
        if isinstance(base, ast.Subscript):
            base = base.value
        if (isinstance(base, ast.Name) and base.id == "Protocol") or (
            isinstance(base, ast.Attribute) and base.attr == "Protocol"
        ):
            return True
    return False


def _defs(tree: ast.AST, prefix: str = "") -> Iterator[Tuple[int, int, str]]:
    """(first line, def line, qualified name) of every def under ``tree``.

    The first line is the one ``co_firstlineno`` reports: that of the
    first decorator, if there is one.  The stubs of a ``Protocol`` are
    declarations, not code, and are not counted.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield first, node.lineno, name
            yield from _defs(node, name + ".<locals>.")
        elif isinstance(node, ast.ClassDef):
            if not _is_protocol(node):
                yield from _defs(node, prefix + node.name + ".")
        else:
            yield from _defs(node, prefix)


def all_defs() -> Dict[Tuple[str, int], Tuple[int, str]]:
    """(absolute path, first line) -> (def line, qualified name)."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for first, line, name in _defs(tree):
            found[(str(path), first)] = (line, name)
    return found


def run_entry_points(workdir: Path, log: Path) -> None:
    hook_dir = workdir / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(
        HOOK.format(prefix=str(PACKAGE) + os.sep, log=str(log)), encoding="utf-8"
    )
    sys.path.insert(0, str(ROOT / "src"))
    from repro.simtest.spec import ScenarioGenerator

    spec_json = ScenarioGenerator(0).spec(0).to_json()
    (workdir / "spec.json").write_text(spec_json, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook_dir), str(ROOT / "src")]))
    fields = {"tmp": str(workdir), "spec": str(workdir / "spec.json"), "spec_json": spec_json}
    for arguments in ENTRY_POINTS:
        command = [sys.executable] + [part.format(**fields) for part in arguments]
        shown = " ".join(arguments)
        started = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=600, check=False,
        )
        print(f"  {time.perf_counter() - started:6.1f}s  exit {done.returncode}  {shown}")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"entry point failed: {shown}")


def called(log: Path) -> Set[Tuple[str, int]]:
    seen = set()
    for row in log.read_text(encoding="utf-8").splitlines():
        filename, line = row.split("\t")
        seen.add((os.path.realpath(filename), int(line)))
    return seen


def check_allowlist(names: Set[str]) -> List[str]:
    problems = []
    for name, (reason, why) in sorted(ALLOWLIST.items()):
        if reason not in REASONS:
            problems.append(f"allowlist entry {name}: reason {reason!r} is not one of {REASONS}")
        if not why:
            problems.append(f"allowlist entry {name}: says nothing about what reaches it")
        if name not in names:
            problems.append(f"allowlist entry {name}: no such def in src/repro")
    return problems


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        workdir = Path(scratch)
        log = workdir / "called.log"
        print("running every entry point under the census hook:")
        run_entry_points(workdir, log)
        seen = called(log)
    defs = all_defs()
    reached, allowlisted, unreached, names = 0, 0, [], set()
    for (path, first), (line, name) in sorted(defs.items()):
        relative = Path(path).relative_to(PACKAGE).as_posix()
        names.add(f"{relative}:{name}")
        if (os.path.realpath(path), first) in seen:
            reached += 1
        elif f"{relative}:{name}" in ALLOWLIST:
            allowlisted += 1
        else:
            unreached.append(f"src/repro/{relative}:{line} {name}")
    problems = check_allowlist(names)
    elapsed = time.perf_counter() - started
    print(
        f"{len(defs)} defs in src/repro, {reached} reached, {allowlisted} allowlisted, "
        f"{len(unreached)} unreached ({elapsed:.0f}s)"
    )
    for row in unreached:
        print(row)
    for problem in problems:
        print(problem)
    return 1 if unreached or problems else 0


if __name__ == "__main__":
    sys.exit(main())
