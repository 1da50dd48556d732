"""Experiment runners: one module per table / figure of the paper."""

from .scenarios import (
    PAPER_STORAGE_LEVELS,
    ExperimentScale,
    poisson_storage_distribution,
    storage_level_fractions,
    storage_level_probabilities,
    uniform_storage_distribution,
)
from .runner import (
    ExperimentRun,
    PreparedWorkload,
    build_config,
    converged_simulation,
    prepare_workload,
    run_experiment_by_name,
    run_experiments_parallel,
)
from .report import format_series, format_table
from .table1_distribution import Table1Result, run_table1
from .fig2_convergence import ConvergenceResult, run_convergence
from .fig3_alpha import PAPER_ALPHAS, AlphaRecallResult, run_alpha_recall
from .fig4_storage_recall import StorageRecallResult, run_storage_recall
from .fig5_space import SpaceResult, run_space_requirements
from .fig6_bandwidth import BandwidthResult, run_query_bandwidth
from .table2_profile_changes import Table2Result, run_table2
from .fig7_aur_lazy import AurLazyResult, run_aur_lazy
from .fig8_reach import ReachResult, run_users_reached
from .fig9_aur_eager import AurEagerResult, run_aur_eager
from .fig10_network_update import NetworkUpdateResult, run_network_update
from .fig11_churn import PAPER_DEPARTURES, ChurnResult, run_churn
from .fig_loss import DEFAULT_LOSS_RATES, run_loss_sweep
from .fig_serving import (
    DEFAULT_COVERAGE_CUTOFFS,
    ServingTradeoffResult,
    run_serving_tradeoff,
)
from .fig_service import ServiceModeResult, run_service_mode
from .fig_adversarial import (
    DEFAULT_FREE_RIDER_FRACTIONS,
    PartitionHealResult,
    run_free_rider_sweep,
    run_partition_heal,
)
from .analysis_alpha import AlphaAnalysisResult, run_alpha_analysis
from .ablations import (
    ExchangeAblationResult,
    RandomViewAblationResult,
    SelectionAblationResult,
    run_exchange_ablation,
    run_random_view_ablation,
    run_selection_ablation,
)

__all__ = [
    "AlphaAnalysisResult",
    "AlphaRecallResult",
    "AurEagerResult",
    "AurLazyResult",
    "BandwidthResult",
    "ChurnResult",
    "ConvergenceResult",
    "DEFAULT_FREE_RIDER_FRACTIONS",
    "DEFAULT_LOSS_RATES",
    "ExchangeAblationResult",
    "ExperimentRun",
    "ExperimentScale",
    "NetworkUpdateResult",
    "PAPER_ALPHAS",
    "PAPER_DEPARTURES",
    "PAPER_STORAGE_LEVELS",
    "PartitionHealResult",
    "PreparedWorkload",
    "RandomViewAblationResult",
    "ReachResult",
    "SelectionAblationResult",
    "SpaceResult",
    "StorageRecallResult",
    "Table1Result",
    "Table2Result",
    "build_config",
    "converged_simulation",
    "format_series",
    "format_table",
    "poisson_storage_distribution",
    "prepare_workload",
    "run_alpha_analysis",
    "run_alpha_recall",
    "run_aur_eager",
    "run_aur_lazy",
    "run_churn",
    "run_convergence",
    "run_exchange_ablation",
    "run_experiment_by_name",
    "run_experiments_parallel",
    "run_free_rider_sweep",
    "run_loss_sweep",
    "DEFAULT_COVERAGE_CUTOFFS",
    "ServingTradeoffResult",
    "run_serving_tradeoff",
    "ServiceModeResult",
    "run_service_mode",
    "run_partition_heal",
    "run_network_update",
    "run_query_bandwidth",
    "run_random_view_ablation",
    "run_selection_ablation",
    "run_space_requirements",
    "run_storage_recall",
    "run_table1",
    "run_table2",
    "run_users_reached",
    "storage_level_fractions",
    "storage_level_probabilities",
    "uniform_storage_distribution",
]
