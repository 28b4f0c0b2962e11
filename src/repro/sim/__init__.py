"""Table II's baseline engines and the result tables experiments print."""

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

__getattr__, __dir__ = lazy_exports(
    __name__,
    baselines=("LAYERWISE", "STAGEWISE", "baseline_arrangements",
               "run_baselines", "simulate_engines"),
    metrics=("PerfReport", "format_table"),
)

__all__ = [
    "LAYERWISE",
    "STAGEWISE",
    "baseline_arrangements",
    "run_baselines",
    "simulate_engines",
    "PerfReport",
    "format_table",
]
