"""Parallel scenario-sweep engine over the scheduler and trunk DSE."""

from typing import TYPE_CHECKING

from .. import lazy_exports

if TYPE_CHECKING:
    from .axes import (
        AXIS_SPECS,
        AxisSpec,
        parse_axis,
        parse_grid_axes,
        parse_tile,
    )
    from .faults import (
        CRASH_EXIT_CODE,
        FAULT_KINDS,
        FaultPlan,
        FaultSpec,
        InjectedFault,
    )
    from .journal import JOURNAL_SCHEMA_VERSION, SweepJournal
    from .resilience import (
        SweepFailure,
        SweepQuarantineError,
        TransientError,
        WorkerCrashError,
        error_class,
    )
    from .runner import (
        RunTables,
        ScenarioSweep,
        SweepItem,
        SweepOutcome,
        SweepResult,
        layer_cost_cache_stats,
        run_scenario,
    )
    from .scenario import (
        WORKLOAD_VARIANTS,
        Scenario,
        ScenarioBuild,
        scenario_grid,
        workload_variant,
    )

__getattr__, __dir__ = lazy_exports(
    __name__,
    axes=("AXIS_SPECS", "AxisSpec", "parse_axis", "parse_grid_axes",
          "parse_tile"),
    faults=("CRASH_EXIT_CODE", "FAULT_KINDS", "FaultPlan", "FaultSpec",
            "InjectedFault"),
    journal=("JOURNAL_SCHEMA_VERSION", "SweepJournal"),
    resilience=("SweepFailure", "SweepQuarantineError", "TransientError",
                "WorkerCrashError", "error_class"),
    runner=("RunTables", "ScenarioSweep", "SweepItem", "SweepOutcome",
            "SweepResult", "layer_cost_cache_stats", "run_scenario"),
    scenario=("WORKLOAD_VARIANTS", "Scenario", "ScenarioBuild",
              "scenario_grid", "workload_variant"),
)

__all__ = [
    "AXIS_SPECS",
    "AxisSpec",
    "parse_axis",
    "parse_grid_axes",
    "parse_tile",
    "CRASH_EXIT_CODE",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "JOURNAL_SCHEMA_VERSION",
    "SweepJournal",
    "SweepFailure",
    "SweepQuarantineError",
    "TransientError",
    "WorkerCrashError",
    "error_class",
    "RunTables",
    "ScenarioSweep",
    "SweepItem",
    "SweepOutcome",
    "SweepResult",
    "layer_cost_cache_stats",
    "run_scenario",
    "WORKLOAD_VARIANTS",
    "Scenario",
    "ScenarioBuild",
    "scenario_grid",
    "workload_variant",
]
