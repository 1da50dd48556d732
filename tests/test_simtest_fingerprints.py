"""Golden fuzz fingerprints: one hash per scenario of the two 50-seed batches.

The batch text of ``python -m repro simtest --seeds 50 --seed 0`` (plain and
``--adversarial``) prints one line per scenario and whether it passed, so a
change that moves traffic, views or query results while every invariant
still holds leaves it byte-identical.  ``tests/data/simtest_fingerprints.json``
pins what the text cannot see: a short sha256 of each scenario's
:func:`~repro.simtest.fingerprint`, hashed over a canonical JSON form.

Before regenerating, list every scenario whose hash moved (read-only; exits 1
if any differs)::

    PYTHONPATH=src python tests/test_simtest_fingerprints.py --diff

Regenerate only for a change that is meant to move behaviour, with the
``--diff`` output as the stated reason the pin moved::

    PYTHONPATH=src python tests/test_simtest_fingerprints.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

from repro.simtest import ScenarioGenerator, run_scenario
from repro.simtest.spec import GeneratorRanges

GOLDEN_PATH = Path(__file__).parent / "data" / "simtest_fingerprints.json"

#: The batches CI's ``perf-guard`` compares as text, by name.
BATCHES = {"plain": GeneratorRanges(), "adversarial": GeneratorRanges.adversarial()}
SEEDS = 50
MASTER_SEED = 0


def fingerprint_hash(fingerprint: Dict) -> str:
    """The first 16 hex digits of the sha256 of a canonical JSON form."""
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def build_hashes() -> Dict[str, List[str]]:
    """Run both batches with their default checkers; one entry per scenario."""
    hashes: Dict[str, List[str]] = {}
    for name, ranges in BATCHES.items():
        generator = ScenarioGenerator(MASTER_SEED, ranges)
        entries = []
        for index in range(SEEDS):
            result = run_scenario(generator.spec(index))
            entries.append(
                fingerprint_hash(result.fingerprint)
                if result.ok
                else f"FAIL {result.violation}"
            )
        hashes[name] = entries
    return hashes


def diff_hashes(golden: Dict[str, List[str]], hashes: Dict[str, List[str]]) -> List[str]:
    """One line per scenario whose entry differs, as ``batch[index]: old -> new``."""
    lines = []
    for name in sorted(set(golden) | set(hashes)):
        old, new = golden.get(name, []), hashes.get(name, [])
        for index in range(max(len(old), len(new))):
            before = old[index] if index < len(old) else "(absent)"
            after = new[index] if index < len(new) else "(absent)"
            if before != after:
                lines.append(f"{name}[{index}]: {before} -> {after}")
    return lines


def _golden() -> Dict[str, List[str]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_batch_fingerprints_match_the_golden():
    moved = diff_hashes(_golden(), build_hashes())
    assert not moved, "\n".join(moved)


def test_diff_names_each_moved_scenario():
    golden = {"plain": ["a", "b"], "adversarial": ["c"]}
    hashes = {"plain": ["a", "x", "y"], "adversarial": ["c"]}
    assert diff_hashes(golden, golden) == []
    assert diff_hashes(golden, hashes) == [
        "plain[1]: b -> x",
        "plain[2]: (absent) -> y",
    ]


def test_hash_is_canonical_over_key_order():
    assert fingerprint_hash({"a": 1, "b": {2: [3]}}) == fingerprint_hash({"b": {2: [3]}, "a": 1})
    assert fingerprint_hash({"a": 1}) != fingerprint_hash({"a": 2})


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    import sys

    if "--diff" in sys.argv:
        moved = diff_hashes(_golden(), build_hashes())
        print("\n".join(moved) if moved else "every scenario matches the golden")
        sys.exit(1 if moved else 0)
    if "--regen" not in sys.argv:
        sys.exit("pass --diff or --regen (see the module docstring)")
    GOLDEN_PATH.write_text(json.dumps(build_hashes(), indent=1) + "\n", encoding="utf-8")
