"""Serialization and report generation."""

from typing import TYPE_CHECKING

from .. import lazy_exports

if TYPE_CHECKING:
    from .report import generate_report
    from .serialize import (
        accel_to_dict,
        group_to_dict,
        layer_to_dict,
        plan_from_record,
        plan_to_record,
        save_sweep,
    )

__getattr__, __dir__ = lazy_exports(
    __name__,
    report=("generate_report",),
    serialize=("accel_to_dict", "group_to_dict", "layer_to_dict",
               "plan_from_record", "plan_to_record", "save_sweep"),
)

__all__ = [
    "generate_report",
    "accel_to_dict",
    "group_to_dict",
    "layer_to_dict",
    "plan_from_record",
    "plan_to_record",
    "save_sweep",
]
