"""Deterministic simulation fuzzing with invariant checking.

``repro.simtest`` turns the reproduction's simulator into a property-based
testing target: a seeded :class:`ScenarioGenerator` samples random scenario
specs (network size, view sizes, alpha, churn schedule, loss rate, delay
cycles, profile-dynamics mix, query workload) as frozen dataclasses, a
registry of :class:`InvariantChecker` objects hooks the engine and transport
to assert cross-cutting system properties on every run, and a driver
(``python -m repro simtest``) runs seeded batches, greedily shrinking any
failing spec to a minimal, replayable repro.

See ``docs/TESTING.md`` for where this sits in the test pyramid and how to
reproduce a failing fuzz seed.
"""

from .invariants import (
    REGISTRY,
    InvariantChecker,
    InvariantViolation,
    default_checkers,
)
from .runner import (
    CRASH,
    RunContext,
    ScenarioResult,
    build_simulation,
    fingerprint,
    run_scenario,
)
from .shrink import TRANSFORMS, ShrinkResult, shrink
from .spec import (
    ChurnEvent,
    DynamicsSpec,
    GeneratorRanges,
    ScenarioGenerator,
    ScenarioSpec,
)

__all__ = [
    "CRASH",
    "REGISTRY",
    "TRANSFORMS",
    "ChurnEvent",
    "DynamicsSpec",
    "GeneratorRanges",
    "InvariantChecker",
    "InvariantViolation",
    "RunContext",
    "ScenarioGenerator",
    "ScenarioResult",
    "ScenarioSpec",
    "ShrinkResult",
    "build_simulation",
    "default_checkers",
    "fingerprint",
    "run_scenario",
    "shrink",
]
