"""Multi-chiplet module (MCM) package model.

A :class:`MCMPackage` is a grid of accelerator chiplets joined by a
Network-on-Package whose hop geometry is a first-class
:class:`~repro.arch.topology.NoPTopology` (open mesh, torus, or a
parameterized ``WxH`` grid).  The canonical instance is the Simba-like
6x6 mesh of 256-PE chiplets (9,216 PEs total, matching the Tesla NPU
budget the paper uses); a dual-NPU platform composes two of them
(Sec. V-B).

Quadrants are 3x3 chiplet blocks on the standard tiling (2x2 blocks on
explicit ``WxH`` grids); the paper's scheduler assigns one perception
stage per quadrant, so the package exposes quadrant membership and
per-stage chiplet budgets.  A quadrant is one engine: stage ``i`` owns
local quadrant ``i`` of every module, and all of their chiplets run one
accelerator config (:meth:`MCMPackage.engine`).  So a package is its
shape's shared :class:`~repro.arch.topology.ChipletGrid` plus one engine
per local quadrant, and holds that invariant by construction.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from ..cost import AcceleratorConfig, simba_chiplet
from .chiplet import Chiplet
from .nop import NOP_28NM, NoPConfig
from .topology import ChipletGrid, NoPTopology, chiplet_grid, topology_for

__all__ = ["MCMPackage", "simba_package"]

#: quadrants per 6x6 NPU module: module ``m`` holds quadrants
#: ``4m..4m+3``, so quadrant ``q`` is local quadrant ``q % 4``.
MODULE_QUADRANTS = 4


@dataclass(frozen=True)
class MCMPackage:
    """A chiplet grid, one engine per local quadrant, and NoP parameters."""

    name: str
    #: the chiplet slots, shared by every package of this shape; also
    #: what placement reads of the package, so it keys placements
    grid: ChipletGrid
    #: local quadrant -> the config its chiplets run in every module
    engines: tuple[AcceleratorConfig, ...]
    nop: NoPConfig = NOP_28NM

    def __post_init__(self) -> None:
        if len(self.engines) != MODULE_QUADRANTS:
            raise ValueError(
                f"{self.name}: {len(self.engines)} engines for "
                f"{MODULE_QUADRANTS} local quadrants")

    # ------------------------------------------------------------------

    @property
    def topology(self) -> NoPTopology:
        return self.grid.topology

    @property
    def npus(self) -> int:
        """Number of 6x6 NPU modules composed into this package."""
        return self.grid.npus

    @property
    def chiplets(self) -> tuple[Chiplet, ...]:
        return self.grid.chiplets

    def __len__(self) -> int:
        return len(self.chiplets)

    def chiplet(self, chiplet_id: int) -> Chiplet:
        return self.chiplets[chiplet_id]

    def at(self, x: int, y: int) -> Chiplet:
        for c in self.chiplets:
            if c.x == x and c.y == y:
                return c
        raise KeyError(f"no chiplet at ({x}, {y})")

    @property
    def total_pes(self) -> int:
        engines = self.engines
        return sum(len(members) * engines[q % MODULE_QUADRANTS].pe_count
                   for q, members in enumerate(self.grid.quadrants))

    def quadrant(self, q: int) -> tuple[Chiplet, ...]:
        """Quadrant ``q``'s chiplets in id order."""
        quadrants = self.grid.quadrants
        if not 0 <= q < len(quadrants):
            raise KeyError(f"no quadrant {q} in {self.name}")
        return quadrants[q]

    def quadrant_capacity(self, q: int) -> int:
        return len(self.quadrant(q))

    def engine(self, q: int) -> AcceleratorConfig:
        """The accelerator config every chiplet of quadrant ``q`` runs,
        shared with the same local quadrant of every other module."""
        if not 0 <= q < len(self.grid.quadrants):
            raise KeyError(f"no quadrant {q} in {self.name}")
        return self.engines[q % MODULE_QUADRANTS]

    def hops(self, a: int, b: int) -> int:
        """Topology-routed hop count between two chiplet ids."""
        return self.topology.hops(self.chiplet(a).coords,
                                  self.chiplet(b).coords)

    def with_engines(self, engine_of: Mapping[int, AcceleratorConfig],
                     suffix: str = "+het") -> "MCMPackage":
        """Return a copy with some local quadrants' engines replaced.

        ``engine_of`` maps local quadrants (``0..3``) to their new
        configs; every other engine is kept.  Whole-quadrant overrides
        (:meth:`repro.arch.quadrants.QuadrantOverrides.apply`) route
        through it.
        """
        unknown = set(engine_of) - set(range(MODULE_QUADRANTS))
        if unknown:
            raise KeyError(
                f"local quadrants not in package: {sorted(unknown)}")
        engines = tuple(engine_of.get(q, engine)
                        for q, engine in enumerate(self.engines))
        return MCMPackage(self.name + suffix, self.grid, engines, self.nop)


def simba_package(dataflow: str = "os", npus: int = 1,
                  accel: AcceleratorConfig | None = None,
                  nop: NoPConfig = NOP_28NM,
                  topology: str | NoPTopology | None = None) -> MCMPackage:
    """Build one or more Simba-like 6x6 MCM NPUs as a single grid.

    ``npus=2`` models the paper's Sec. V-B platform with both FSD NPUs
    active (72 chiplets, 18,432 PEs) as a 12x6 mesh.  ``topology``
    selects the NoP hop geometry: ``None``/``"mesh"`` keep the seed open
    mesh, ``"torus"`` adds wraparound links at the same grid size, and
    an explicit ``KIND-WxH`` token (e.g. ``"torus-8x8"``, single-module
    only) sizes the grid directly with a 2x2 quadrant tiling.
    """
    if npus < 1:
        raise ValueError("npus must be >= 1")
    if isinstance(topology, NoPTopology):
        topo = topology
    else:
        topo = topology_for(topology, npus)
    base = accel or simba_chiplet(dataflow)
    mesh_w, mesh_h = topo.width, topo.height
    if (mesh_w, mesh_h) != (6 * npus, 6):
        # The token path already enforces these via parse_topology; a
        # directly-passed NoPTopology instance must meet the same 2x2
        # quadrant-tiling preconditions (and fix the whole package, so
        # it cannot combine with multi-module tiling).
        if npus != 1:
            raise ValueError(
                f"topology grid {mesh_w}x{mesh_h} is incompatible with "
                f"npus={npus}: the grid already fixes the package size")
        if mesh_w < 2 or mesh_h < 2 or mesh_w % 2 or mesh_h % 2:
            raise ValueError(
                f"topology grid {mesh_w}x{mesh_h} must have even width "
                f"and height >= 2 (the 2x2 quadrant tiling needs both)")
    name = f"simba-{mesh_w}x{mesh_h}-{dataflow}"
    if topo.kind != "mesh":
        name = f"simba-{mesh_w}x{mesh_h}-{topo.kind}-{dataflow}"
    return MCMPackage(name, chiplet_grid(topo, npus),
                      (base,) * MODULE_QUADRANTS, nop)
