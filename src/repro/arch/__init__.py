"""Multi-chiplet module architecture model (chiplets, NoP topology, DRAM)."""

from typing import TYPE_CHECKING

from .. import lazy_exports

if TYPE_CHECKING:
    from .chiplet import Chiplet
    from .dram import (
        FSD_LPDDR4_BYTES_PER_S,
        DramBudget,
        DramReport,
        camera_input_bytes,
        dram_report,
        weight_stream_bytes,
        workload_dram_bytes,
    )
    from .nop import NOP_28NM, NoPConfig, NoPTransfer, transfer_cost
    from .package import MCMPackage, simba_package
    from .quadrants import (
        QUADRANT_NAMES,
        QuadrantOverride,
        QuadrantOverrides,
        package_composition,
        quadrant_ids,
    )
    from .topology import (
        TOPOLOGY_KINDS,
        NoPTopology,
        canonical_topology,
        min_hop_map,
        parse_topology,
        topology_for,
    )

__getattr__, __dir__ = lazy_exports(
    __name__,
    chiplet=("Chiplet",),
    dram=("FSD_LPDDR4_BYTES_PER_S", "DramBudget", "DramReport",
          "camera_input_bytes", "dram_report", "weight_stream_bytes",
          "workload_dram_bytes"),
    nop=("NOP_28NM", "NoPConfig", "NoPTransfer", "transfer_cost"),
    package=("MCMPackage", "simba_package"),
    quadrants=("QUADRANT_NAMES", "QuadrantOverride", "QuadrantOverrides",
               "package_composition", "quadrant_ids"),
    topology=("TOPOLOGY_KINDS", "NoPTopology", "canonical_topology",
              "min_hop_map", "parse_topology", "topology_for"),
)

__all__ = [
    "Chiplet",
    "FSD_LPDDR4_BYTES_PER_S",
    "DramBudget",
    "DramReport",
    "camera_input_bytes",
    "dram_report",
    "weight_stream_bytes",
    "workload_dram_bytes",
    "NOP_28NM",
    "NoPConfig",
    "NoPTransfer",
    "transfer_cost",
    "MCMPackage",
    "min_hop_map",
    "simba_package",
    "QUADRANT_NAMES",
    "QuadrantOverride",
    "QuadrantOverrides",
    "package_composition",
    "quadrant_ids",
    "TOPOLOGY_KINDS",
    "NoPTopology",
    "canonical_topology",
    "parse_topology",
    "topology_for",
]
