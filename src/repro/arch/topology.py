"""Package-level NoP topologies (paper Sec. IV-D follow-on).

The seed model hard-wired the package interconnect to an XY-routed *open*
rectangular mesh: every hop count was a Manhattan distance, computed
inline wherever it was needed (placement, schedule pricing, the package's
``hops`` accessor).  :class:`NoPTopology` promotes that geometry to a
first-class object so the topology itself becomes a sweep axis:

* ``mesh`` — the seed open grid; XY-routed hops are plain L1 distances.
* ``torus`` — the same grid with wraparound links on both axes; the
  per-axis hop count becomes ``min(d, size - d)``, which shortens every
  route longer than half the grid (the paper's Sec. IV-D observation
  that package-level interconnect topology, not just link bandwidth,
  bounds multi-chiplet latency).
* parameterized ``WxH`` grids — packages beyond the side-by-side 6x6
  NPU tiling, quadrant-partitioned into 2x2 blocks.

Everything hop-shaped routes through this object: ``hops(a, b)`` prices
one route, and :attr:`NoPTopology.hop_table` holds every route of the
grid, one row per cell (``y * width + x``).  Placement and schedule pricing
read nearest-hop distances from it, and only for the cells they price:
``nearest_hops(sources, targets)`` returns one entry per target cell, the
minimum of that target's row read at the source cells (hops are
symmetric).  Each table entry is ``hops()``, so mesh results are
bit-identical to the seed's two-pass L1 distance transform, which
``tests/oracles.py`` keeps as the reference.

A package's chiplet slots are likewise a pure function of its topology
and NPU count: :func:`chiplet_grid` builds them once per shape.

Plan keying: group plans do not depend on the topology.  Sharding picks
each plan from compute cost alone and the NoP is priced only once the
plan is fixed (placement and ``Schedule``); the paper's Fig. 9 puts NoP
costs two orders of magnitude below compute.  So the plan cache and
store keys carry no topology, and mesh and torus scenarios share every
plan.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field

from .chiplet import Chiplet

#: supported topology kinds, in canonical order.
TOPOLOGY_KINDS = ("mesh", "torus")


@dataclass(frozen=True)
class NoPTopology:
    """Hop geometry of the package's Network-on-Package grid."""

    kind: str = "mesh"
    width: int = 6
    height: int = 6

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; valid choices: "
                f"{', '.join(TOPOLOGY_KINDS)}")
        if self.width < 1 or self.height < 1:
            raise ValueError(
                f"topology grid must be at least 1x1, "
                f"got {self.width}x{self.height}")

    # ------------------------------------------------------------------

    @property
    def wraparound(self) -> bool:
        """True when both axes close into rings (torus)."""
        return self.kind == "torus"

    @property
    def token(self) -> str:
        """Canonical axis token for this topology (``torus-8x8`` form)."""
        return f"{self.kind}-{self.width}x{self.height}"

    # ------------------------------------------------------------------
    # Hop geometry
    # ------------------------------------------------------------------

    def hops(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        """XY-routed hop count between two grid coordinates.

        On a torus each axis may route through the wraparound link, so
        the per-axis distance is ``min(d, size - d)``.
        """
        dx = abs(a[0] - b[0])
        dy = abs(a[1] - b[1])
        if self.wraparound:
            dx = min(dx, self.width - dx)
            dy = min(dy, self.height - dy)
        return dx + dy

    def cell(self, x: int, y: int) -> int:
        """Index of grid coordinate ``(x, y)`` in :attr:`hop_table`."""
        return y * self.width + x

    @property
    def hop_table(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs hop counts: ``hop_table[i][j]`` is ``hops()`` between
        cells ``i`` and ``j`` (see :meth:`cell`).

        Built on first use and shared by equal topologies.
        """
        return _hop_table(self)

    def nearest_hops(self, sources: Sequence[int],
                     targets: Sequence[int]) -> list[int]:
        """Min hops from each of ``targets`` to the nearest of ``sources``.

        Cells are :attr:`hop_table` indices.  One entry per target, in
        order: hops are symmetric, so each is the minimum of the target's
        table row read at the source cells.  No sources yields the
        unreachable sentinel (``width + height``) for every target.
        """
        if not sources:
            return [self.width + self.height] * len(targets)
        table = self.hop_table
        return [min([table[t][s] for s in sources]) for t in targets]


@functools.lru_cache(maxsize=16)
def _hop_table(topo: NoPTopology) -> tuple[tuple[int, ...], ...]:
    """Build ``topo.hop_table`` separably from per-axis distances.

    XY-routed hops add per axis, so the row of cell ``(x, y)`` is the
    outer sum of the y axis's row ``y`` and the x axis's row ``x``: the
    distance on a line, ``min(d, size - d)`` around a ring.  Rows and
    entries both run in :meth:`NoPTopology.cell` order.
    """
    def axis(size: int) -> list[list[int]]:
        rows = [[abs(a - b) for b in range(size)] for a in range(size)]
        if topo.wraparound:
            rows = [[min(d, size - d) for d in row] for row in rows]
        return rows

    dx, dy = axis(topo.width), axis(topo.height)
    return tuple(tuple([a + b for a in dy[y] for b in dx[x]])
                 for y in range(topo.height) for x in range(topo.width))


@dataclass(frozen=True)
class ChipletGrid:
    """The chiplet slots of one package shape, shared by its packages.

    Built by :func:`chiplet_grid`, and compared and hashed by
    ``(topology, npus)`` alone, so packages of one shape share one
    placement even when they hold distinct grid objects.
    """

    topology: NoPTopology
    npus: int
    #: every slot in id order: ids run row-major over the grid
    chiplets: tuple[Chiplet, ...] = field(compare=False, repr=False)
    #: quadrant -> its slots in id order
    quadrants: tuple[tuple[Chiplet, ...], ...] = field(compare=False,
                                                       repr=False)
    #: chiplet id -> its :attr:`NoPTopology.hop_table` cell
    cells: tuple[int, ...] = field(compare=False, repr=False)


@functools.lru_cache(maxsize=16)
def chiplet_grid(topo: NoPTopology, npus: int) -> ChipletGrid:
    """The chiplet slots of ``npus`` modules side by side on ``topo``.

    Each module is tiled into 2x2 quadrants, row-major, and module ``m``
    holds quadrants ``4m..4m+3``: the paper's 3x3 blocks on the standard
    ``6*npus x 6`` grid, ``(W/2)x(H/2)`` blocks on an explicit ``WxH``
    grid of one module.  The caller checks that the grid tiles
    (:func:`repro.arch.simba_package`).
    """
    width, height = topo.width, topo.height
    module_w = width // npus
    chiplets = []
    members: list[list[Chiplet]] = [[] for _ in range(4 * npus)]
    for y in range(height):
        for x in range(width):
            quad = (4 * (x // module_w) + 2 * (y // (height // 2))
                    + (x % module_w) // (module_w // 2))
            chiplets.append(Chiplet(len(chiplets), x, y, quad))
            members[quad].append(chiplets[-1])
    return ChipletGrid(topo, npus, tuple(chiplets),
                       tuple(map(tuple, members)),
                       tuple(topo.cell(c.x, c.y) for c in chiplets))


def parse_topology(token: str) -> "tuple[str, tuple[int, int] | None]":
    """Parse a topology axis token into ``(kind, explicit grid dims)``.

    Accepted forms: ``mesh`` / ``torus`` (grid sized by the package's
    NPU count) and ``KIND-WxH`` (an explicit grid, e.g. ``torus-8x8``).
    Explicit grids need even dimensions >= 2 so the 2x2 quadrant tiling
    (one perception stage per quadrant) stays well-defined.
    """
    text = token.strip().lower()
    kind, sep, size = text.partition("-")
    if kind not in TOPOLOGY_KINDS:
        raise ValueError(
            f"unknown topology {token!r}; valid choices: "
            f"{', '.join(TOPOLOGY_KINDS)}, optionally with an explicit "
            f"grid as KIND-WxH (e.g. torus-8x8)")
    if not sep:
        return kind, None
    w_text, x, h_text = size.partition("x")
    if not x or not w_text.isdigit() or not h_text.isdigit():
        raise ValueError(
            f"bad topology grid in {token!r}: expected KIND-WxH with "
            f"integer dimensions, e.g. mesh-8x8")
    dims = (int(w_text), int(h_text))
    if dims[0] < 2 or dims[1] < 2 or dims[0] % 2 or dims[1] % 2:
        raise ValueError(
            f"topology grid {token!r} must have even width and height "
            f">= 2 (the 2x2 quadrant tiling needs both)")
    return kind, dims


def canonical_topology(token: str) -> str:
    """Validate and canonicalize one topology token (lowercased form)."""
    kind, dims = parse_topology(token)
    return kind if dims is None else f"{kind}-{dims[0]}x{dims[1]}"


def topology_for(token: "str | None", npus: int) -> NoPTopology:
    """Resolve a topology token against a package of ``npus`` modules.

    ``None`` and size-less tokens take the standard side-by-side tiling
    (``6*npus x 6``); an explicit ``KIND-WxH`` grid sizes the package
    directly and is only meaningful for a single-module package.
    """
    if token is None:
        return NoPTopology("mesh", 6 * npus, 6)
    kind, dims = parse_topology(token)
    if dims is None:
        return NoPTopology(kind, 6 * npus, 6)
    if npus != 1:
        raise ValueError(
            f"explicit topology grid {token!r} is incompatible with "
            f"npus={npus}: the grid already fixes the package size")
    return NoPTopology(kind, dims[0], dims[1])
