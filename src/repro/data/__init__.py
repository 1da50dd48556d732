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
    DynamicsConfig,
    ProfileDynamicsGenerator,
    apply_change_day,
    massive_departure,
)
from .queries import Query, QueryWorkloadGenerator

__all__ = [
    "ActionInterner",
    "GLOBAL_INTERNER",
    "action_of",
    "intern_action",
    "ChangeDay",
    "Dataset",
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
    "massive_departure",
]
