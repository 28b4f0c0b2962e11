"""The paper's core contribution: throughput-matching scheduler and DSE."""

from typing import TYPE_CHECKING

from .. import lazy_exports

# Bound eagerly: perfbench's ``layers.clear_memos`` finds this reset with
# ``inspect.getattr_static``, which never calls a module ``__getattr__``.
from .plancache import clear_plan_cache

if TYPE_CHECKING:
    from .context import (
        DEFAULT_FRACTIONS,
        LaneContextPoint,
        lane_context_sweep,
        min_feasible_fraction,
    )
    from .dse import TrunkConfig, TrunkDSE, best_ranked
    from .hetero import HeterogeneousResult, schedule_heterogeneous
    from .placement import default_stage_quadrants, place
    from .plancache import (
        CacheStats,
        PlanCache,
        get_plan_cache,
        plan_cache_stats,
    )
    from .planstore import SCHEMA_VERSION, PlanStore, plan_key_hash
    from .schedule import GroupSchedule, NoPEdge, Schedule, TraceStep
    from .sharding import (
        MODE_INSTANCES,
        MODE_PIPELINE,
        MODE_ROWS,
        MODE_SINGLE,
        GroupPlan,
        max_row_shards,
        next_shard_step,
        plan_group,
        split_plane,
    )
    from .throughput import ThroughputMatcher, match_throughput

__getattr__, __dir__ = lazy_exports(
    __name__,
    context=("DEFAULT_FRACTIONS", "LaneContextPoint",
             "lane_context_sweep", "min_feasible_fraction"),
    dse=("TrunkConfig", "TrunkDSE", "best_ranked"),
    hetero=("HeterogeneousResult", "schedule_heterogeneous"),
    placement=("default_stage_quadrants", "place"),
    plancache=("CacheStats", "PlanCache", "get_plan_cache",
               "plan_cache_stats"),
    planstore=("SCHEMA_VERSION", "PlanStore", "plan_key_hash"),
    schedule=("GroupSchedule", "NoPEdge", "Schedule", "TraceStep"),
    sharding=("MODE_INSTANCES", "MODE_PIPELINE", "MODE_ROWS",
              "MODE_SINGLE", "GroupPlan", "max_row_shards",
              "next_shard_step", "plan_group", "split_plane"),
    throughput=("ThroughputMatcher", "match_throughput"),
)

__all__ = [
    "DEFAULT_FRACTIONS",
    "LaneContextPoint",
    "lane_context_sweep",
    "min_feasible_fraction",
    "TrunkConfig",
    "TrunkDSE",
    "best_ranked",
    "HeterogeneousResult",
    "schedule_heterogeneous",
    "CacheStats",
    "PlanCache",
    "clear_plan_cache",
    "get_plan_cache",
    "plan_cache_stats",
    "SCHEMA_VERSION",
    "PlanStore",
    "plan_key_hash",
    "default_stage_quadrants",
    "place",
    "GroupSchedule",
    "NoPEdge",
    "Schedule",
    "TraceStep",
    "GroupPlan",
    "MODE_SINGLE",
    "MODE_INSTANCES",
    "MODE_ROWS",
    "MODE_PIPELINE",
    "max_row_shards",
    "next_shard_step",
    "plan_group",
    "split_plane",
    "ThroughputMatcher",
    "match_throughput",
]
