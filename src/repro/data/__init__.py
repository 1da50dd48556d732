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
from .synthetic import SyntheticConfig, SyntheticTraceGenerator, generate_dataset
from .dynamics import (
    ChurnEvent,
    DynamicsConfig,
    ProfileDynamicsGenerator,
    apply_change_day,
    massive_departure,
)
from .queries import Query, QueryWorkloadGenerator
from .loader import DatasetFormatError, load_or_generate_synthetic, synthetic_cache_key

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
    "ProfileChange",
    "ProfileDynamicsGenerator",
    "Query",
    "QueryWorkloadGenerator",
    "SyntheticConfig",
    "SyntheticTraceGenerator",
    "TaggingAction",
    "UserProfile",
    "apply_change_day",
    "generate_dataset",
    "load_or_generate_synthetic",
    "massive_departure",
    "synthetic_cache_key",
]
