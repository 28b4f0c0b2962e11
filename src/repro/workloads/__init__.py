"""Perception workload IR and Tesla-Autopilot-style pipeline builders."""

from typing import TYPE_CHECKING

from .. import lazy_exports

if TYPE_CHECKING:
    from .graph import LayerGroup, PerceptionWorkload, Stage
    from .layers import (
        BYTES_PER_WORD,
        Layer,
        LayerKind,
        ShardAxis,
        concat,
        conv,
        deconv,
        dense,
        dwconv,
        eltwise,
        matmul,
        move,
        pool,
        softmax,
        total_macs,
    )
    from .pipeline import (
        STAGE_FE,
        STAGE_ORDER,
        STAGE_S,
        STAGE_T,
        STAGE_TR,
        PipelineConfig,
        build_perception_workload,
    )
    from .trunks import (
        build_detection_layers,
        build_lane_layers,
        build_occupancy_layers,
    )
    from .validate import (
        Diagnostic,
        WorkloadValidationError,
        check_workload,
        validate_workload,
    )

__getattr__, __dir__ = lazy_exports(
    __name__,
    graph=("LayerGroup", "PerceptionWorkload", "Stage"),
    layers=("BYTES_PER_WORD", "Layer", "LayerKind", "ShardAxis", "concat",
            "conv", "deconv", "dense", "dwconv", "eltwise", "matmul",
            "move", "pool", "softmax", "total_macs"),
    pipeline=("STAGE_FE", "STAGE_ORDER", "STAGE_S", "STAGE_T", "STAGE_TR",
              "PipelineConfig", "build_perception_workload"),
    trunks=("build_detection_layers", "build_lane_layers",
            "build_occupancy_layers"),
    validate=("Diagnostic", "WorkloadValidationError", "check_workload",
              "validate_workload"),
)

__all__ = [
    "BYTES_PER_WORD",
    "Layer",
    "LayerKind",
    "ShardAxis",
    "LayerGroup",
    "PerceptionWorkload",
    "Stage",
    "conv",
    "dwconv",
    "deconv",
    "dense",
    "matmul",
    "softmax",
    "pool",
    "eltwise",
    "concat",
    "move",
    "total_macs",
    "PipelineConfig",
    "build_perception_workload",
    "STAGE_FE",
    "STAGE_S",
    "STAGE_T",
    "STAGE_TR",
    "STAGE_ORDER",
    "build_occupancy_layers",
    "build_lane_layers",
    "build_detection_layers",
    "Diagnostic",
    "WorkloadValidationError",
    "check_workload",
    "validate_workload",
]
