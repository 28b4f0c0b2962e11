"""Workload/dataflow analyses backing the paper's Sec. III figures."""

from typing import TYPE_CHECKING

from .. import lazy_exports

if TYPE_CHECKING:
    from .affinity import FIG4_BLOCKS, LayerAffinity, affinity_blocks, \
        layer_affinity
    from .breakdown import ComponentCost, component_breakdown, \
        fusion_latency_share
    from .frontier import design_frontier_report, design_frontier_rows, \
        design_frontier_table
    from .layer_table import layer_cost_table, to_csv
    from .scaling import camera_sweep, chiplet_scaling_report, \
        chiplet_scaling_rows, frame_queue_sweep, resolution_sweep

__getattr__, __dir__ = lazy_exports(
    __name__,
    affinity=("FIG4_BLOCKS", "LayerAffinity", "affinity_blocks",
              "layer_affinity"),
    breakdown=("ComponentCost", "component_breakdown",
               "fusion_latency_share"),
    frontier=("design_frontier_report", "design_frontier_rows",
              "design_frontier_table"),
    layer_table=("layer_cost_table", "to_csv"),
    scaling=("camera_sweep", "chiplet_scaling_report",
             "chiplet_scaling_rows", "frame_queue_sweep",
             "resolution_sweep"),
)

__all__ = [
    "layer_cost_table",
    "to_csv",
    "chiplet_scaling_report",
    "chiplet_scaling_rows",
    "camera_sweep",
    "frame_queue_sweep",
    "resolution_sweep",
    "design_frontier_report",
    "design_frontier_rows",
    "design_frontier_table",
    "FIG4_BLOCKS",
    "LayerAffinity",
    "affinity_blocks",
    "layer_affinity",
    "ComponentCost",
    "component_breakdown",
    "fusion_latency_share",
]
