"""A single chiplet slot on the package mesh."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Chiplet:
    """One chiplet slot: its id, mesh position and quadrant.

    ``quadrant`` identifies the 3x3 block of the 6x6 Simba-like package the
    chiplet belongs to; the paper's scheduler allocates one perception stage
    per quadrant (Sec. IV).  A slot carries no hardware: every chiplet of a
    quadrant runs the package's engine for it
    (:meth:`~repro.arch.MCMPackage.engine`).
    """

    chiplet_id: int
    x: int
    y: int
    quadrant: int

    @property
    def coords(self) -> tuple[int, int]:
        return (self.x, self.y)

    # Hop distances are owned by the package topology
    # (``MCMPackage.hops`` / ``repro.arch.topology.NoPTopology``): a
    # chiplet alone cannot know whether its grid wraps around.
