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
local quadrant ``i`` of every module, and all of their chiplets share
one accelerator config (:meth:`MCMPackage.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cost import AcceleratorConfig, simba_chiplet
from .chiplet import Chiplet
from .nop import NOP_28NM, NoPConfig
from .topology import NoPTopology, min_hop_map, topology_for

__all__ = ["MCMPackage", "min_hop_map", "simba_package"]

#: quadrants per 6x6 NPU module: module ``m`` holds quadrants
#: ``4m..4m+3``, so quadrant ``q`` is local quadrant ``q % 4``.
MODULE_QUADRANTS = 4


@dataclass
class MCMPackage:
    """A grid of chiplets plus NoP parameters and topology."""

    name: str
    mesh_w: int
    mesh_h: int
    chiplets: list[Chiplet]
    nop: NoPConfig = NOP_28NM
    #: number of 6x6 NPU modules composed into this package
    npus: int = 1
    #: hop geometry of the package grid; ``None`` defaults to the seed
    #: open mesh of the package's own dimensions.
    topology: NoPTopology | None = None
    #: what placement reads of the package: the topology, the NPU count,
    #: and each chiplet's hop-table cell and quadrant, in id order.
    #: Packages with equal keys get equal placements of one allocation.
    placement_key: tuple = field(init=False, repr=False, compare=False)
    #: quadrant -> its chiplets in id order (see :meth:`quadrant`)
    _quadrants: dict[int, list[Chiplet]] = field(
        init=False, repr=False, compare=False)
    #: local quadrant -> the one config its chiplets share in every
    #: module (see :meth:`engine`)
    _engines: dict[int, AcceleratorConfig] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.topology is None:
            self.topology = NoPTopology("mesh", self.mesh_w, self.mesh_h)
        if (self.topology.width, self.topology.height) != \
                (self.mesh_w, self.mesh_h):
            raise ValueError(
                f"{self.name}: topology grid "
                f"{self.topology.width}x{self.topology.height} does not "
                f"match the {self.mesh_w}x{self.mesh_h} package")
        if len(self.chiplets) != self.mesh_w * self.mesh_h:
            raise ValueError(
                f"{self.name}: {len(self.chiplets)} chiplets do not fill a "
                f"{self.mesh_w}x{self.mesh_h} mesh")
        # chiplet(i) indexes the list and the hop table indexes cells by
        # coordinates, so both must be exact.
        if any(c.chiplet_id != i for i, c in enumerate(self.chiplets)):
            raise ValueError(
                f"{self.name}: chiplets must be listed by id 0..N-1")
        cells = {(c.x, c.y) for c in self.chiplets
                 if 0 <= c.x < self.mesh_w and 0 <= c.y < self.mesh_h}
        if len(cells) != len(self.chiplets):
            raise ValueError(
                f"{self.name}: chiplet coordinates must cover the "
                f"{self.mesh_w}x{self.mesh_h} grid exactly once")
        # A package is never mutated once built, so these are computed
        # here, once.  Chiplets of one engine usually share one config
        # object, so identity settles most comparisons.
        self._quadrants = {}
        self._engines = {}
        for c in self.chiplets:
            self._quadrants.setdefault(c.quadrant, []).append(c)
            local = c.quadrant % MODULE_QUADRANTS
            engine = self._engines.setdefault(local, c.accel)
            if c.accel is not engine and c.accel != engine:
                raise ValueError(
                    f"{self.name}: chiplet {c.chiplet_id} ({c.hw_token}) "
                    f"differs from the rest of local quadrant {local} "
                    f"({engine.hw_token}); a quadrant is one engine in "
                    f"every module")
        topo = self.topology
        self.placement_key = (
            topo, self.npus,
            tuple(topo.cell(c.x, c.y) for c in self.chiplets),
            tuple(c.quadrant for c in self.chiplets))

    # ------------------------------------------------------------------

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
        return sum(c.accel.pe_count for c in self.chiplets)

    @property
    def quadrant_count(self) -> int:
        return max(self._quadrants) + 1

    def quadrant(self, q: int) -> list[Chiplet]:
        members = self._quadrants.get(q)
        if members is None:
            raise KeyError(f"no quadrant {q} in {self.name}")
        return list(members)

    def quadrant_capacity(self, q: int) -> int:
        return len(self.quadrant(q))

    def engine(self, q: int) -> AcceleratorConfig:
        """The accelerator config every chiplet of quadrant ``q`` runs,
        shared with the same local quadrant of every other module."""
        if q not in self._quadrants:
            raise KeyError(f"no quadrant {q} in {self.name}")
        return self._engines[q % MODULE_QUADRANTS]

    def hops(self, a: int, b: int) -> int:
        """Topology-routed hop count between two chiplet ids."""
        assert self.topology is not None  # set in __post_init__
        return self.topology.hops(self.chiplet(a).coords,
                                  self.chiplet(b).coords)

    def with_accels(self, accel_of: dict[int, AcceleratorConfig],
                    suffix: str = "+het") -> "MCMPackage":
        """Return a copy with per-chiplet accelerator replacements.

        ``accel_of`` maps chiplet ids to their new configs; every other
        chiplet is kept.  Whole-quadrant overrides
        (:meth:`repro.arch.quadrants.QuadrantOverrides.apply`) route
        through it; a map that leaves a quadrant holding two engines
        raises ``ValueError``.
        """
        unknown = set(accel_of) - {c.chiplet_id for c in self.chiplets}
        if unknown:
            raise KeyError(f"chiplet ids not in package: {sorted(unknown)}")
        new = [c.with_accel(accel_of[c.chiplet_id])
               if c.chiplet_id in accel_of else c
               for c in self.chiplets]
        return MCMPackage(self.name + suffix, self.mesh_w, self.mesh_h,
                          new, self.nop, self.npus, self.topology)


def _quadrant_of(x: int, y: int) -> int:
    """Quadrant index for a 6x6 NPU tile: 3x3 blocks, row-major.

    For packages composed of several 6x6 NPUs side by side, quadrants
    continue counting across modules (module m contributes quadrants
    4m..4m+3).
    """
    module = x // 6
    lx = x % 6
    return 4 * module + (y // 3) * 2 + (lx // 3)


def _grid_quadrant_of(x: int, y: int, width: int, height: int) -> int:
    """Quadrant index on an explicit ``WxH`` grid: 2x2 blocks of
    ``(W/2)x(H/2)`` chiplets, row-major (4 quadrants total)."""
    return (y // (height // 2)) * 2 + (x // (width // 2))


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
    standard_tiling = (mesh_w, mesh_h) == (6 * npus, 6)
    if not standard_tiling:
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
    chiplets = []
    cid = 0
    for y in range(mesh_h):
        for x in range(mesh_w):
            quad = (_quadrant_of(x, y) if standard_tiling
                    else _grid_quadrant_of(x, y, mesh_w, mesh_h))
            chiplets.append(Chiplet(cid, x, y, base, quad))
            cid += 1
    name = f"simba-{mesh_w}x{mesh_h}-{dataflow}"
    if topo.kind != "mesh":
        name = f"simba-{mesh_w}x{mesh_h}-{topo.kind}-{dataflow}"
    return MCMPackage(name, mesh_w, mesh_h, chiplets, nop, npus, topo)
