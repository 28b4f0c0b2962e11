"""Pipeline performance simulation: MCM schedules and baseline engines."""

from typing import TYPE_CHECKING

from .. import lazy_exports

if TYPE_CHECKING:
    from .baselines import (
        LAYERWISE,
        STAGEWISE,
        baseline_arrangements,
        run_baselines,
        simulate_engines,
    )
    from .metrics import PerfReport, format_table
    from .stream import FrameRecord, StreamResult, StreamSimulator, \
        stream_validate

__getattr__, __dir__ = lazy_exports(
    __name__,
    baselines=("LAYERWISE", "STAGEWISE", "baseline_arrangements",
               "run_baselines", "simulate_engines"),
    metrics=("PerfReport", "format_table"),
    stream=("FrameRecord", "StreamResult", "StreamSimulator",
            "stream_validate"),
)

__all__ = [
    "FrameRecord",
    "StreamResult",
    "StreamSimulator",
    "stream_validate",
    "LAYERWISE",
    "STAGEWISE",
    "baseline_arrangements",
    "run_baselines",
    "simulate_engines",
    "PerfReport",
    "format_table",
]
