"""Data substrate: tagging-trace model, synthetic generator, dynamics, queries."""

from .models import (
    ChangeDay,
    Dataset,
    DatasetStats,
    ProfileChange,
    TaggingAction,
    UserProfile,
)
from .interning import GLOBAL_INTERNER, ActionInterner, action_of, intern_action
from .synthetic import (
    SyntheticConfig,
    SyntheticTraceGenerator,
    generate_dataset,
    paper_scale_config,
)
from .dynamics import (
    ChurnEvent,
    DynamicsConfig,
    ProfileDynamicsGenerator,
    apply_change_day,
    massive_departure,
)
from .queries import Query, QueryWorkloadGenerator
from .loader import (
    DatasetFormatError,
    load_dataset,
    load_or_generate_synthetic,
    save_dataset,
    synthetic_cache_key,
)
from .importers import (
    ImportResult,
    TraceImportError,
    import_tagging_trace,
    iter_tagging_rows,
)

__all__ = [
    "ActionInterner",
    "GLOBAL_INTERNER",
    "action_of",
    "intern_action",
    "ChangeDay",
    "ChurnEvent",
    "Dataset",
    "DatasetFormatError",
    "DatasetStats",
    "DynamicsConfig",
    "ImportResult",
    "ProfileChange",
    "ProfileDynamicsGenerator",
    "Query",
    "QueryWorkloadGenerator",
    "SyntheticConfig",
    "SyntheticTraceGenerator",
    "TaggingAction",
    "TraceImportError",
    "UserProfile",
    "apply_change_day",
    "generate_dataset",
    "import_tagging_trace",
    "iter_tagging_rows",
    "load_dataset",
    "load_or_generate_synthetic",
    "massive_departure",
    "paper_scale_config",
    "save_dataset",
    "synthetic_cache_key",
]
