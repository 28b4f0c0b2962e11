"""Scenario definitions for design-space sweeps.

A :class:`Scenario` is one fully-specified run of the throughput-matching
scheduler (plus, optionally, the trunk DSE): a workload variant, a package
size, a NoP bandwidth, a tolerance coefficient, a heterogeneous WS chiplet
budget — and the *hardware* axes the accelerator, memory, and package
models expose: dataflow style, clock frequency, native dataflow tile,
DRAM bandwidth, the package NoP topology (``mesh``, ``torus``, or
explicit ``KIND-WxH`` grids), and per-quadrant hardware overrides
(``hetero``, compact tokens like ``trunk:ws@1.2`` — see
:mod:`repro.arch.quadrants`).  Scenarios are frozen, hashable, and
serializable, with a deterministic ``key`` string used to merge results
order-independently.

The hardware axes all default to ``None`` = seed behavior: they are
excluded from ``key`` and ``to_dict()`` unless set, so grids that do not
touch them produce byte-identical artifacts (and PlanStore merge keys)
to the PR 2 engine.

:meth:`Scenario.build` is the single package-construction path: it
materializes the ``(workload, package, DramBudget)`` triple every
scenario implies, so the sweep runner, the experiments, and the CLI all
agree on how an axis value becomes hardware.

:func:`scenario_grid` expands a cartesian grid over those axes — the shape
of every ablation the paper implies but does not run (tolerance, NoP
bandwidth, chiplet-count scaling, workload dimensions, Het(k) budgets,
dataflow/frequency/tile choices, DRAM-contention scenarios).  The CLI
spelling of those axes, and their parsing, live in
:mod:`repro.sweep.axes`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..arch import (
    DramBudget,
    MCMPackage,
    NoPConfig,
    QuadrantOverrides,
    canonical_topology,
    parse_topology,
    simba_package,
    workload_dram_bytes,
)
from ..cost import (
    AcceleratorConfig,
    nvdla_chiplet,
    shidiannao_chiplet,
    simba_chiplet,
)
from ..cost.accelerator import DATAFLOW_STYLES as _STYLES
from ..workloads.graph import PerceptionWorkload
from ..workloads.pipeline import PipelineConfig, build_perception_workload

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..core.schedule import Schedule
    from ..core.throughput import AllocationTable

#: named workload variants: the paper's fixed workload plus the scaling
#: knobs of analysis.scaling, as reusable scenario axes.
WORKLOAD_VARIANTS: dict[str, PipelineConfig] = {
    "default": PipelineConfig(),
    "lores": PipelineConfig(input_hw=(540, 960)),
    "hires": PipelineConfig(input_hw=(1080, 1920)),
    "quad-camera": PipelineConfig(cameras=4),
    "six-camera": PipelineConfig(cameras=6),
    "shallow-queue": PipelineConfig(t_frames=6),
    "deep-queue": PipelineConfig(t_frames=24),
    "full-context": PipelineConfig(lane_context=1.0),
}


#: built workloads by config, owned by one caller for the span of a run.
WorkloadTable = dict[PipelineConfig, PerceptionWorkload]
#: built packages by :meth:`Scenario.package_key`, owned likewise.
PackageTable = dict[tuple, MCMPackage]


def workload_variant(name: str) -> PipelineConfig:
    """The :class:`PipelineConfig` behind a variant name."""
    try:
        return WORKLOAD_VARIANTS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload variant {name!r}; "
            f"known: {', '.join(sorted(WORKLOAD_VARIANTS))}") from None


# A grid builds every scenario from a few axis tokens, so both token
# parsers are memoized per token string.  Parsing errors are raised
# afresh on every call (lru_cache keeps only results), so each scenario
# is still validated with the same message.

@functools.lru_cache(maxsize=256)
def _topology_token(token: str) -> tuple[str, bool]:
    """A topology token's canonical form, and whether it fixes a grid."""
    _, dims = parse_topology(token)
    return canonical_topology(token), dims is not None


@functools.lru_cache(maxsize=256)
def _quadrant_overrides(token: str) -> QuadrantOverrides:
    """:meth:`QuadrantOverrides.parse` (the result is immutable)."""
    return QuadrantOverrides.parse(token)


@dataclass(frozen=True)
class ScenarioBuild:
    """The hardware a :class:`Scenario` materializes to.

    One :meth:`Scenario.build` call produces the full
    ``(workload, package, DramBudget)`` triple plus the config behind the
    workload variant, so experiments and the sweep runner stop
    hand-rolling ``simba_package(...)`` calls.  ``dram`` is ``None`` when
    the scenario leaves the DRAM axis unset — the schedule then keeps the
    seed compute-only accounting.
    """

    scenario: "Scenario"
    config: PipelineConfig
    workload: PerceptionWorkload
    package: MCMPackage
    dram: DramBudget | None
    #: per-frame DRAM traffic (0 when no budget is attached).
    dram_bytes_per_frame: int

    @property
    def accel(self) -> AcceleratorConfig:
        """The (possibly overridden) package-wide chiplet config.

        On a per-quadrant heterogeneous package this is the ``fe``
        quadrant's engine; ``package.engine(q)`` gives every quadrant's.
        """
        return self.package.engine(0)

    def schedule(self,
                 allocations: "AllocationTable | None" = None) -> "Schedule":
        """Run the throughput matcher on the materialized hardware.

        ``allocations`` is the caller's table of Algorithm 1 allocations,
        passed on to :meth:`~repro.core.ThroughputMatcher.run` (``None``
        allocates this build's own).
        """
        from ..core.throughput import ThroughputMatcher
        return ThroughputMatcher(
            self.workload, self.package,
            tolerance=self.scenario.tolerance,
            dram=self.dram,
            dram_bytes_per_frame=self.dram_bytes_per_frame).run(allocations)


@dataclass(frozen=True)
class Scenario:
    """One point of a sweep grid."""

    tolerance: float = 1.05
    #: NoP link bandwidth in GB/s; None keeps the default (100 GB/s).
    nop_gbps: float | None = None
    #: number of 6x6 NPU modules in the package (package size axis).
    npus: int = 1
    #: key into :data:`WORKLOAD_VARIANTS`.
    workload: str = "default"
    #: when set, additionally run the trunk DSE with this WS chiplet budget.
    het_ws_budget: int | None = None
    # ------------------------------------------------------------------
    # Hardware axes (PR 3).  All default to None = seed behavior, and are
    # excluded from key/to_dict unless set — existing grids, artifacts,
    # and PlanStore merge keys are unchanged at defaults.
    # ------------------------------------------------------------------
    #: chiplet dataflow style ("os", "ws", "rs"); None keeps "os".
    dataflow: str | None = None
    #: chiplet clock in GHz; None keeps the 2 GHz Simba preset.
    frequency_ghz: float | None = None
    #: native dataflow tile as (rows, cols); None keeps 16x16.
    native_tile: tuple[int, int] | None = None
    #: package DRAM bandwidth in GB/s; None detaches the DRAM budget
    #: (compute-only steady state, the seed behavior).
    dram_gbps: float | None = None
    #: NoP topology token ("mesh", "torus", or "KIND-WxH" explicit
    #: grids); None keeps the seed open mesh.
    topology: str | None = None
    #: per-quadrant hardware overrides as a compact token
    #: ("trunk:ws@1.2+temporal:@1.5" — see repro.arch.quadrants); each
    #: rewrites whole quadrants, Het(k) is ``het_ws_budget``.  None keeps
    #: the package homogeneous (seed behavior).
    hetero: str | None = None

    def __post_init__(self) -> None:
        # tolerance/npus/workload have no "default" sentinel: an explicit
        # None (e.g. a CLI axis of 'none') is a usage error, reported as
        # ValueError rather than a comparison TypeError.
        # Range checks are written so that NaN fails them too.
        if self.tolerance is None or not self.tolerance >= 1.0:
            raise ValueError("tolerance must be a number >= 1.0")
        if self.npus is None or self.npus < 1:
            raise ValueError("npus must be an integer >= 1")
        if self.nop_gbps is not None and not self.nop_gbps > 0:
            raise ValueError("nop_gbps must be positive")
        if self.het_ws_budget is not None and self.het_ws_budget < 0:
            raise ValueError("het_ws_budget must be >= 0")
        if self.dataflow is not None and self.dataflow not in _STYLES:
            raise ValueError(
                f"dataflow must be one of {', '.join(_STYLES)}; "
                f"got {self.dataflow!r}")
        if self.frequency_ghz is not None and not self.frequency_ghz > 0:
            raise ValueError("frequency_ghz must be positive")
        if self.native_tile is not None:
            tile = self.native_tile
            if (not isinstance(tile, (tuple, list)) or len(tile) != 2
                    or not all(isinstance(d, int) and d > 0 for d in tile)):
                raise ValueError(
                    f"native_tile must be two positive integers "
                    f"(rows, cols); got {tile!r}")
            object.__setattr__(self, "native_tile", tuple(tile))
        if self.dram_gbps is not None and not self.dram_gbps > 0:
            raise ValueError("dram_gbps must be positive")
        if self.topology is not None:
            # Canonicalize so "Torus" / "torus-8X8" key identically, and
            # fail fast on tokens (or npus conflicts) the package builder
            # would reject mid-sweep.
            topology, fixes_grid = _topology_token(self.topology)
            if fixes_grid and self.npus != 1:
                raise ValueError(
                    f"topology {self.topology!r} fixes an explicit grid "
                    f"and is incompatible with npus={self.npus}")
            object.__setattr__(self, "topology", topology)
        if self.hetero is not None:
            # Canonicalize (quadrant order, %g frequencies) so equivalent
            # spellings key identically, and fail fast on tokens the
            # package builder would reject mid-sweep.
            object.__setattr__(self, "hetero",
                               _quadrant_overrides(self.hetero).token)
        workload_variant(self.workload)  # fail fast on unknown variants

    @property
    def key(self) -> str:
        """Deterministic identity string (merge key and report label).

        Hardware axes contribute a fragment only when set, keeping the
        key byte-stable for every grid expressible before they existed.
        Cached per instance, like :class:`~repro.workloads.layers.Layer`'s
        hash: grids and sweeps read it several times per scenario.
        """
        key = self.__dict__.get("_key")
        if key is None:
            key = self._make_key()
            object.__setattr__(self, "_key", key)
        return key

    def _make_key(self) -> str:
        nop = "default" if self.nop_gbps is None else f"{self.nop_gbps:g}"
        het = "-" if self.het_ws_budget is None else str(self.het_ws_budget)
        parts = [f"tol={self.tolerance:g}|nop={nop}|npus={self.npus}"
                 f"|wl={self.workload}|het={het}"]
        if self.dataflow is not None:
            parts.append(f"df={self.dataflow}")
        if self.frequency_ghz is not None:
            parts.append(f"ghz={self.frequency_ghz:g}")
        if self.native_tile is not None:
            parts.append(f"tile={self.native_tile[0]}x{self.native_tile[1]}")
        if self.dram_gbps is not None:
            parts.append(f"dram={self.dram_gbps:g}")
        if self.topology is not None:
            parts.append(f"topo={self.topology}")
        if self.hetero is not None:
            parts.append(f"hetero={self.hetero}")
        return "|".join(parts)

    def to_dict(self) -> dict:
        """Row payload; hardware axes appear only when set (byte-stable)."""
        out = {
            "tolerance": self.tolerance,
            "nop_gbps": self.nop_gbps,
            "npus": self.npus,
            "workload": self.workload,
            "het_ws_budget": self.het_ws_budget,
        }
        if self.dataflow is not None:
            out["dataflow"] = self.dataflow
        if self.frequency_ghz is not None:
            out["frequency_ghz"] = self.frequency_ghz
        if self.native_tile is not None:
            out["native_tile"] = list(self.native_tile)
        if self.dram_gbps is not None:
            out["dram_gbps"] = self.dram_gbps
        if self.topology is not None:
            out["topology"] = self.topology
        if self.hetero is not None:
            out["hetero"] = self.hetero
        return out

    # ------------------------------------------------------------------
    # Hardware materialization
    # ------------------------------------------------------------------

    def quadrant_overrides(self) -> QuadrantOverrides | None:
        """The parsed per-quadrant override spec (None when unset)."""
        if self.hetero is None:
            return None
        return _quadrant_overrides(self.hetero)

    def trunk_hw(self) -> tuple[float | None, tuple[int, int] | None]:
        """Effective ``(frequency_ghz, native_tile)`` of the trunk quadrant.

        The scenario-wide hardware axes overlaid with the ``trunk``
        quadrant override (if any) — what the trunk DSE's candidate
        accelerators must run at.  The quadrant *dataflow* is
        deliberately absent: the DSE explores its own OS/WS mixes
        regardless of the quadrant's resident style.
        """
        freq, tile = self.frequency_ghz, self.native_tile
        spec = self.quadrant_overrides()
        trunk = spec.get("trunk") if spec is not None else None
        if trunk is not None:
            if trunk.frequency_ghz is not None:
                freq = trunk.frequency_ghz
            if trunk.native_tile is not None:
                tile = trunk.native_tile
        return freq, tile

    def trunk_accels(self) -> tuple[AcceleratorConfig, AcceleratorConfig]:
        """The trunk DSE's ``(os, ws)`` candidate engines.

        ShiDianNao (OS) and NVDLA (WS) presets at the trunk quadrant's
        effective clock and tile (:meth:`trunk_hw`).
        """
        ghz, tile = self.trunk_hw()
        freq = None if ghz is None else ghz * 1e9
        return (shidiannao_chiplet().with_overrides(frequency_hz=freq,
                                                    native_tile=tile),
                nvdla_chiplet().with_overrides(frequency_hz=freq,
                                               native_tile=tile))

    def accel(self) -> AcceleratorConfig:
        """The chiplet config this scenario's axes describe.

        Overrides ride on the Simba preset via
        :meth:`~repro.cost.AcceleratorConfig.with_overrides`, so an
        explicit value equal to the default yields the *identical*
        config (same plan-cache and plan-store entries), while any real
        difference changes the content hash and never shares a plan.
        """
        base = simba_chiplet(self.dataflow or "os")
        freq = (None if self.frequency_ghz is None
                else self.frequency_ghz * 1e9)
        return base.with_overrides(frequency_hz=freq,
                                   native_tile=self.native_tile)

    def dram_budget(self) -> DramBudget | None:
        """The DRAM budget this scenario attaches (None = detached)."""
        if self.dram_gbps is None:
            return None
        return DramBudget(bandwidth_bytes_per_s=self.dram_gbps * 1e9)

    def package_key(self) -> tuple:
        """The seven axes :meth:`package` reads, as a plain tuple.

        Scenarios with equal keys build equal packages, so a caller can
        build each distinct package once; an axis :meth:`package` starts
        reading must join the key.  A tuple rather than a ``Scenario``
        with the other axes reset: ``dataclasses.replace`` would re-run
        ``__post_init__``'s token parsing per scenario.
        """
        return (self.npus, self.nop_gbps, self.dataflow, self.frequency_ghz,
                self.native_tile, self.topology, self.hetero)

    def package(self) -> MCMPackage:
        """Materialize only the package (no workload build) — for callers
        that pair the scenario's hardware with their own workload.

        Per-quadrant overrides layer on the package-wide accelerator
        last, so the ``hetero`` axis composes with every other hardware
        axis (a ``trunk:ws`` override on a 1 GHz package yields a 1 GHz
        WS trunk quadrant).
        """
        nop = (NoPConfig(bandwidth_bytes_per_s=self.nop_gbps * 1e9)
               if self.nop_gbps is not None else NoPConfig())
        accel = self.accel()
        package = simba_package(dataflow=accel.dataflow, npus=self.npus,
                                accel=accel, nop=nop,
                                topology=self.topology)
        spec = self.quadrant_overrides()
        if spec is not None:
            package = spec.apply(package)
        return package

    def build(self, workloads: WorkloadTable | None = None,
              packages: PackageTable | None = None) -> ScenarioBuild:
        """Materialize the ``(workload, package, DramBudget)`` triple.

        The single construction path shared by the sweep runner, the
        experiments, and the CLI: at default axes it reproduces the PR 2
        hand-rolled ``simba_package(npus=..., nop=...)`` call exactly.

        ``workloads`` and ``packages`` are caller-owned tables of
        already-built workloads (by config) and packages (by
        :meth:`package_key`): an entry found there is reused, and one
        built here is added.  Scenarios built from one table share those
        objects, which is safe because nothing downstream mutates a
        workload or a package.
        """
        config = workload_variant(self.workload)
        if workloads is None:
            workloads = {}
        workload = workloads.get(config)
        if workload is None:
            workload = workloads[config] = build_perception_workload(config)
        if packages is None:
            packages = {}
        key = self.package_key()
        package = packages.get(key)
        if package is None:
            package = packages[key] = self.package()
        dram = self.dram_budget()
        dram_bytes = (workload_dram_bytes(workload, config)
                      if dram is not None else 0)
        return ScenarioBuild(scenario=self, config=config,
                             workload=workload, package=package,
                             dram=dram, dram_bytes_per_frame=dram_bytes)


def scenario_grid(
        tolerances: Sequence[float] = (1.05,),
        nop_gbps: Sequence[float | None] = (None,),
        npus: Sequence[int] = (1,),
        workloads: Sequence[str] = ("default",),
        het_ws_budgets: Sequence[int | None] = (None,),
        dataflows: Sequence[str | None] = (None,),
        frequencies_ghz: Sequence[float | None] = (None,),
        native_tiles: Sequence[tuple[int, int] | None] = (None,),
        dram_gbps: Sequence[float | None] = (None,),
        topologies: Sequence[str | None] = (None,),
        heteros: Sequence[str | None] = (None,),
) -> list[Scenario]:
    """Cartesian scenario grid over the eleven sweep axes.

    The expansion order is deterministic (row-major over the arguments as
    given), so a grid built twice from the same inputs is identical — the
    property the parallel runner's order-independent merge relies on.
    The hardware axes expand innermost: grids that leave them at their
    defaults enumerate in exactly the PR 2 order.
    """
    grid = [
        Scenario(tolerance=tol, nop_gbps=bw, npus=n,
                 workload=wl, het_ws_budget=het, dataflow=df,
                 frequency_ghz=ghz, native_tile=tile, dram_gbps=dram,
                 topology=topo, hetero=hmix)
        for tol in tolerances
        for bw in nop_gbps
        for n in npus
        for wl in workloads
        for het in het_ws_budgets
        for df in dataflows
        for ghz in frequencies_ghz
        for tile in native_tiles
        for dram in dram_gbps
        for topo in topologies
        for hmix in heteros
    ]
    seen: set[str] = set()
    for s in grid:
        if s.key in seen:
            raise ValueError(f"duplicate scenario in grid: {s.key}")
        seen.add(s.key)
    return grid
