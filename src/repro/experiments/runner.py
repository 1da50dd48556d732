"""Shared helpers for the per-figure experiment runners.

Besides the workload/simulation builders this module hosts the **parallel
scenario runner**: :func:`run_experiments_parallel` fans independent
experiments out over a pool of worker processes (``--workers`` on the CLI).
Each worker rebuilds its own workload from the scale's seed, so results are
byte-identical to a serial run while wall-clock time scales with cores.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..baselines.centralized import CentralizedTopK
from ..data.models import Dataset
from ..data.queries import Query, QueryWorkloadGenerator
from ..p3q.config import P3QConfig, StorageSpec
from ..p3q.protocol import P3QSimulation
from ..similarity.knn import IdealNetworkIndex
from .scenarios import ExperimentScale


@dataclass
class PreparedWorkload:
    """A dataset plus everything the query experiments share."""

    scale: ExperimentScale
    dataset: Dataset
    ideal: IdealNetworkIndex
    centralized: CentralizedTopK
    queries: List[Query]
    #: query_id -> reference top-k items (recall = 1 results).
    references: Dict[int, List[int]]


def build_config(
    scale: ExperimentScale,
    storage: StorageSpec,
    alpha: float = 0.5,
    seed: Optional[int] = None,
    three_step_exchange: bool = True,
) -> P3QConfig:
    """A :class:`P3QConfig` matching an experiment scale."""
    return P3QConfig(
        network_size=scale.network_size,
        storage=storage,
        random_view_size=scale.random_view_size,
        k=scale.k,
        alpha=alpha,
        digest_bits=scale.digest_bits,
        digest_hashes=scale.digest_hashes,
        seed=scale.seed if seed is None else seed,
        three_step_exchange=three_step_exchange,
    )


def prepare_workload(
    scale: ExperimentScale,
    dataset: Optional[Dataset] = None,
    num_queries: Optional[int] = None,
) -> PreparedWorkload:
    """Build the dataset, the ideal index, the query workload and references."""
    dataset = dataset if dataset is not None else scale.build_dataset()
    ideal = IdealNetworkIndex(dataset, size=scale.network_size)
    centralized = CentralizedTopK(dataset, network_size=scale.network_size, ideal=ideal)
    generator = QueryWorkloadGenerator(dataset, seed=scale.seed)
    count = num_queries if num_queries is not None else scale.num_queries
    queriers = dataset.user_ids[:count]
    queries = generator.generate(queriers)
    references = centralized.relevant_items(queries, k=scale.k)
    return PreparedWorkload(
        scale=scale,
        dataset=dataset,
        ideal=ideal,
        centralized=centralized,
        queries=queries,
        references=references,
    )


def converged_simulation(
    workload: PreparedWorkload,
    storage: StorageSpec,
    alpha: float = 0.5,
    config_overrides: Optional[Mapping[str, object]] = None,
) -> P3QSimulation:
    """A warm-started simulation (personal networks already converged).

    The dataset is copied so that experiments mutating profiles (dynamics)
    or taking nodes offline (churn) never leak state into the shared
    workload, so the shared ideal index stays a valid warm start.
    ``config_overrides`` patches arbitrary :class:`P3QConfig`
    fields (e.g. ``{"loss_rate": 0.2}`` for the loss
    sweep) on top of the scale-derived configuration.
    """
    config = build_config(workload.scale, storage, alpha=alpha)
    if config_overrides:
        config = replace(config, **config_overrides)
    simulation = P3QSimulation(workload.dataset.copy(), config)
    simulation.warm_start(ideal=workload.ideal)
    simulation.bootstrap_random_views()
    return simulation


# ---------------------------------------------------------------- parallelism


@dataclass
class ExperimentRun:
    """Outcome of one experiment executed by the scenario runner."""

    name: str
    description: str
    report: str
    elapsed_seconds: float


def run_experiment_by_name(name: str, scale_name: str = "small") -> ExperimentRun:
    """Execute one registered experiment end to end (worker entry point).

    Registered experiments live in :data:`repro.experiments.cli.EXPERIMENTS`;
    the worker rebuilds its own workload (experiments are seeded, so every
    process derives an identical one) and renders the report text.  Module
    level and picklable by name, as ``multiprocessing`` requires.
    """
    from .cli import EXPERIMENTS, resolve_scale

    description, needs_workload, runner = EXPERIMENTS[name]
    scale = resolve_scale(scale_name)
    workload = prepare_workload(scale) if needs_workload else None
    start = time.perf_counter()
    result = runner(scale, workload)
    elapsed = time.perf_counter() - start
    return ExperimentRun(
        name=name,
        description=description,
        report=result.render(),
        elapsed_seconds=elapsed,
    )


def _run_experiment_args(args: Tuple[str, str]) -> ExperimentRun:
    return run_experiment_by_name(*args)


def run_experiments_parallel(
    names: Sequence[str],
    scale_name: str = "small",
    workers: int = 2,
) -> List[ExperimentRun]:
    """Fan experiments out over ``workers`` processes; results in input order.

    Every scenario runs in its own process (full isolation: interning tables,
    Bloom caches and RNG streams are rebuilt from the scale's seed), so the
    reports are byte-identical to a serial run.  With one worker or a single
    experiment the pool is skipped entirely.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    if workers == 1 or len(names) <= 1:
        return [run_experiment_by_name(name, scale_name) for name in names]

    import multiprocessing

    jobs = [(name, scale_name) for name in names]
    processes = min(workers, len(jobs))
    with multiprocessing.Pool(processes=processes) as pool:
        return pool.map(_run_experiment_args, jobs)
