"""End-to-end heterogeneous scheduling: Algorithm 1 + trunk DSE combined.

The paper evaluates heterogeneous integration only inside the trunk
quadrant (Table I).  This module composes that flow: run throughput
matching on the output-stationary package, then run the trunk DSE to pick
the Het(k) trunk mapping under the resulting latency constraint.  The
DSE prices the WS chiplets itself; no mixed package is built, since a
quadrant is one engine (:class:`~repro.arch.package.MCMPackage`).  The
sweep's ``het_ws_budget`` axis runs the same DSE.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch import simba_package
from ..workloads.graph import PerceptionWorkload
from ..workloads.pipeline import build_perception_workload
from .dse import TrunkConfig, TrunkDSE
from .schedule import Schedule
from .throughput import ThroughputMatcher


@dataclass(frozen=True)
class HeterogeneousResult:
    """Joint result of the matcher and the heterogeneous trunk DSE."""

    schedule: Schedule
    trunk_config: TrunkConfig

    @property
    def pipe_latency_s(self) -> float:
        """Pipeline latency including the DSE-mapped trunks."""
        return max(self.schedule.pipe_latency_s,
                   self.trunk_config.pipe_ms / 1e3)

    @property
    def energy_j(self) -> float:
        """Per-frame energy with the heterogeneous trunk mapping.

        The matcher's trunk energy is replaced by the DSE's.
        """
        trunk_energy = sum(
            self.schedule.groups[g.name].plan.energy_j
            for g in self.schedule.workload.stage("TRUNKS").groups)
        return (self.schedule.energy_j - trunk_energy
                + self.trunk_config.energy_j)

    @property
    def energy_saving_j(self) -> float:
        return self.schedule.energy_j - self.energy_j


def schedule_heterogeneous(
        workload: PerceptionWorkload | None = None,
        ws_chiplets: int = 2,
        tolerance: float = 1.05,
        npus: int = 1) -> HeterogeneousResult:
    """Full heterogeneous flow: match stages 1-3, DSE the trunks.

    ``ws_chiplets`` selects the Het(k) configuration (0 gives the OS-only
    trunk mapping; the paper studies k in {2, 4}).
    """
    workload = workload or build_perception_workload()
    package = simba_package(npus=npus)
    matcher = ThroughputMatcher(workload, package, tolerance)
    schedule = matcher.run()

    trunk_stage = workload.stage("TRUNKS")
    l_cstr = tolerance * schedule.base_latency_s
    dse = TrunkDSE(stage=trunk_stage, l_cstr_s=l_cstr,
                   chiplets=sum(package.quadrant_capacity(q)
                                for q in schedule.stage_quadrants["TRUNKS"]))
    return HeterogeneousResult(schedule=schedule,
                               trunk_config=dse.search(ws_chiplets))
