"""JSON-safe serialization of workloads, plans, and schedules.

Schedules are the unit downstream tooling wants to persist (e.g. to diff
scheduler versions or feed a floorplanning flow).  The dictionaries emitted
here are pure built-in types, stable across runs, and documented field by
field so external consumers do not need this package to read them.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import TYPE_CHECKING

from ..core.schedule import Schedule
from ..core.sharding import GroupPlan
from ..cost import AcceleratorConfig
from ..workloads.graph import LayerGroup, PerceptionWorkload
from ..workloads.layers import Layer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..sweep.runner import SweepResult


def layer_to_dict(layer: Layer) -> dict:
    """One layer: dimensions, kind, and derived sizes."""
    return {
        "name": layer.name,
        "kind": layer.kind.value,
        "out_h": layer.out_h,
        "out_w": layer.out_w,
        "k": layer.k,
        "c": layer.c,
        "r": layer.r,
        "s": layer.s,
        "stride": layer.stride,
        "weights_are_activations": layer.weights_are_activations,
        "macs": layer.macs,
        "weight_words": layer.weight_words,
        "output_words": layer.output_words,
    }


def group_to_dict(group: LayerGroup) -> dict:
    """One layer group with its scheduling attributes."""
    return {
        "name": group.name,
        "stage": group.stage,
        "instances": group.instances,
        "instance_axis": group.instance_axis,
        "depends_on": list(group.depends_on),
        "row_shardable": group.row_shardable,
        "pipeline_splittable": group.pipeline_splittable,
        "total_macs": group.total_macs,
        "layers": [layer_to_dict(layer) for layer in group.layers],
    }


def workload_to_dict(workload: PerceptionWorkload) -> dict:
    """The full perception workload as nested dictionaries."""
    return {
        "stages": [
            {"name": s.name, "groups": [group_to_dict(g) for g in s.groups]}
            for s in workload.stages
        ],
        "total_macs": workload.total_macs,
    }


def accel_to_dict(accel: AcceleratorConfig) -> dict:
    """One accelerator config (nested energy table included), JSON-safe."""
    payload = dataclasses.asdict(accel)
    payload["native_tile"] = list(accel.native_tile)
    return payload


def plan_to_record(plan: GroupPlan) -> dict:
    """Exact round-trip form of a :class:`GroupPlan` (plan-store entries).

    Unlike :func:`plan_to_dict` (a report view in milliseconds), this keeps
    every dataclass field verbatim in its native unit, so
    ``plan_from_record(plan_to_record(p)) == p`` holds bit-for-bit — JSON
    floats serialize via ``repr`` and round-trip exactly.
    """
    return {
        "group_name": plan.group_name,
        "n_chiplets": plan.n_chiplets,
        "mode": plan.mode,
        "per_chiplet_busy": list(plan.per_chiplet_busy),
        "span_s": plan.span_s,
        "energy_j": plan.energy_j,
        "macs": plan.macs,
        "segments": plan.segments,
    }


def plan_from_record(record: dict) -> GroupPlan:
    """Inverse of :func:`plan_to_record`."""
    return GroupPlan(
        group_name=record["group_name"],
        n_chiplets=record["n_chiplets"],
        mode=record["mode"],
        per_chiplet_busy=tuple(record["per_chiplet_busy"]),
        span_s=record["span_s"],
        energy_j=record["energy_j"],
        macs=record["macs"],
        segments=record["segments"],
    )


def plan_to_dict(plan: GroupPlan) -> dict:
    """One group plan: chiplet count, mode, and per-chiplet timing."""
    return {
        "group": plan.group_name,
        "n_chiplets": plan.n_chiplets,
        "mode": plan.mode,
        "segments": plan.segments,
        "pipe_latency_ms": plan.pipe_latency_s * 1e3,
        "span_ms": plan.span_s * 1e3,
        "energy_j": plan.energy_j,
        "per_chiplet_busy_ms": [t * 1e3 for t in plan.per_chiplet_busy],
    }


def schedule_to_dict(schedule: Schedule) -> dict:
    """A complete schedule: mapping, metrics, NoP edges, and trace."""
    return {
        "package": {
            "name": schedule.package.name,
            "mesh": [schedule.package.topology.width,
                     schedule.package.topology.height],
            "total_pes": schedule.package.total_pes,
            "npus": schedule.package.npus,
        },
        "tolerance": schedule.tolerance,
        "base_latency_ms": schedule.base_latency_s * 1e3,
        "stage_quadrants": {k: list(v)
                            for k, v in schedule.stage_quadrants.items()},
        "groups": {
            name: {
                "plan": plan_to_dict(gs.plan),
                "chiplets": list(gs.chiplet_ids),
                "host": gs.host,
            }
            for name, gs in schedule.groups.items()
        },
        "metrics": schedule.summary(),
        "nop_edges": [
            {
                "src": e.src_group,
                "dst": e.dst_group,
                "payload_bytes": e.payload_bytes,
                "hops": e.hops,
                "latency_ms": e.latency_s * 1e3,
                "energy_mj": e.energy_j * 1e3,
            }
            for e in schedule.nop_edges()
        ],
        "trace": [
            {
                "step": t.step,
                "phase": t.phase,
                "action": t.action,
                "group": t.group,
                "n_chiplets": t.n_chiplets,
                "pipe_latency_ms": t.pipe_latency_ms,
                "chiplets_remaining": t.chiplets_remaining,
            }
            for t in schedule.trace
        ],
    }


def save_schedule(schedule: Schedule, path: str | pathlib.Path) -> None:
    """Write a schedule dump as pretty-printed JSON."""
    payload = schedule_to_dict(schedule)
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def save_sweep(result: "SweepResult", path: str | pathlib.Path) -> None:
    """Write a :class:`~repro.sweep.runner.SweepResult` as stable JSON.

    The ``rows`` list is the deterministic payload (identical between the
    serial and parallel paths); ``summary`` carries run metadata and the
    aggregated plan-cache counters.
    """
    pathlib.Path(path).write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
