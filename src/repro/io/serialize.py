"""JSON-safe serialization of layer groups, plans and sweep results.

The plan store keys and stores its entries with these views, and
``sweep --output`` writes a sweep's rows with :func:`save_sweep`.  The
dictionaries emitted here are pure built-in types, stable across runs,
and documented field by field so external consumers do not need this
package to read them.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import TYPE_CHECKING

from ..core.sharding import GroupPlan
from ..cost import AcceleratorConfig
from ..workloads.graph import LayerGroup
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


def accel_to_dict(accel: AcceleratorConfig) -> dict:
    """One accelerator config (nested energy table included), JSON-safe."""
    payload = dataclasses.asdict(accel)
    payload["native_tile"] = list(accel.native_tile)
    return payload


def plan_to_record(plan: GroupPlan) -> dict:
    """Exact round-trip form of a :class:`GroupPlan` (plan-store entries).

    This keeps every dataclass field verbatim in its native unit, so
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


def save_sweep(result: "SweepResult", path: str | pathlib.Path) -> None:
    """Write a :class:`~repro.sweep.runner.SweepResult` as stable JSON.

    The ``rows`` list is the deterministic payload (identical between the
    serial and parallel paths); ``summary`` carries run metadata and the
    aggregated plan-cache counters.
    """
    pathlib.Path(path).write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
