"""Assembly of the full Tesla-Autopilot-style perception pipeline (Fig. 2).

:class:`PipelineConfig` centralizes every workload dimension; the defaults
are the calibrated values documented in DESIGN.md Sec. 3, chosen so that the
paper's own latency arithmetic (stage shares, single-chiplet block
latencies, Lat_base) is reproduced by the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .bifpn import build_fe_bfpn
from .fusion import build_spatial_fusion, build_temporal_fusion
from .graph import LayerGroup, PerceptionWorkload, Stage
from .resnet import build_resnet18_fe
from .trunks import build_trunks

#: Canonical stage names, in pipeline order.
STAGE_FE = "FE_BFPN"
STAGE_S = "S_FUSE"
STAGE_T = "T_FUSE"
STAGE_TR = "TRUNKS"
STAGE_ORDER = (STAGE_FE, STAGE_S, STAGE_T, STAGE_TR)


@dataclass(frozen=True)
class PipelineConfig:
    """All workload dimensions of the perception pipeline."""

    cameras: int = 8
    input_hw: tuple[int, int] = (720, 1280)
    #: BEV attention grid used by the fusion transformers (paper Sec. IV-B).
    grid: tuple[int, int] = (200, 80)
    #: pooled token grid consumed by the trunks (paper Fig. 2).
    token_grid: tuple[int, int] = (20, 80)
    bifpn_blocks: int = 2
    fusion_d: int = 384
    fusion_d_in: int = 384
    s_window: int = 800
    s_ffn_hidden: int = 1152
    t_frames: int = 12
    t_window_per_frame: int = 120
    t_ffn_hidden: int = 1536
    trunk_channels: int = 300
    occ_channels: int = 90
    occ_stages: int = 4
    lane_levels: int = 3
    lane_d: int = 352
    #: fraction of grid regions the lane trunk processes (Fig. 11); the
    #: paper's context-aware computing default is ~60%.
    lane_context: float = 0.6
    det_heads: int = 3
    fps: float = 30.0

    def __hash__(self) -> int:
        # Configs key every run's workload table, and a design search
        # probes its per-variant tables once per candidate: cache the
        # structural hash per instance (over every field, as the
        # generated __eq__ compares).
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", h)
        return h


def build_fe_stage(config: PipelineConfig) -> Stage:
    """Stage 1: eight concurrent FE+BFPN models (one per camera)."""
    fe_layers = build_resnet18_fe(config.input_hw, stage=STAGE_FE,
                                  group="FE_BFPN")
    chain = build_fe_bfpn(fe_layers, config.bifpn_blocks, stage=STAGE_FE,
                          group="FE_BFPN")
    stage = Stage(STAGE_FE)
    stage.add(LayerGroup(
        name="FE_BFPN",
        layers=tuple(chain),
        stage=STAGE_FE,
        instances=config.cameras,
        instance_axis="camera",
        row_shardable=False,       # deep conv chain: only pipeline splits
        pipeline_splittable=True,
    ))
    return stage


def build_perception_workload(
        config: PipelineConfig | None = None) -> PerceptionWorkload:
    """Build the complete four-stage perception workload."""
    config = config or PipelineConfig()
    stages = [
        build_fe_stage(config),
        build_spatial_fusion(
            grid=config.grid,
            cameras=config.cameras,
            d_model=config.fusion_d,
            d_in=config.fusion_d_in,
            window=config.s_window,
            ffn_hidden=config.s_ffn_hidden,
        ),
        build_temporal_fusion(
            grid=config.grid,
            frames=config.t_frames,
            d_model=config.fusion_d,
            window_per_frame=config.t_window_per_frame,
            ffn_hidden=config.t_ffn_hidden,
            token_grid=config.token_grid,
            out_channels=config.trunk_channels,
        ),
        build_trunks(
            token_grid=config.token_grid,
            cameras=config.cameras,
            in_channels=config.trunk_channels,
            occ_channels=config.occ_channels,
            occ_stages=config.occ_stages,
            lane_levels=config.lane_levels,
            lane_d=config.lane_d,
            lane_context=config.lane_context,
            det_heads=config.det_heads,
        ),
    ]
    return PerceptionWorkload(stages=stages)
