"""Terminal visualization: mesh floorplans, bar charts, step plots."""

from typing import TYPE_CHECKING

from .. import lazy_exports

if TYPE_CHECKING:
    from .charts import hbar_chart, sparkline, step_plot
    from .floorplan import chiplet_labels, render_floorplan

__getattr__, __dir__ = lazy_exports(
    __name__,
    charts=("hbar_chart", "sparkline", "step_plot"),
    floorplan=("chiplet_labels", "render_floorplan"),
)

__all__ = [
    "hbar_chart",
    "sparkline",
    "step_plot",
    "chiplet_labels",
    "render_floorplan",
]
