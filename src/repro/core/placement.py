"""NoP-aware placement of scheduled groups onto mesh coordinates.

The paper observes (Sec. IV-D) that large feature-map producers must sit
close to their consumers to bound NoP overheads.  We use a deterministic
greedy placement: stages own their quadrants; groups are placed in
dependency order, and each chiplet is chosen to minimize hop distance to
the group's already-placed producers (falling back to the previous stage's
chiplets for stage-entry groups), with a mild contiguity bonus so sharded
groups stay clustered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch import MCMPackage
from ..arch.package import MODULE_QUADRANTS
from ..workloads.graph import PerceptionWorkload


@dataclass(frozen=True)
class Placement:
    """One allocation's groups placed on one package geometry.

    Each :class:`~repro.core.throughput.Allocation` keeps the placements
    made from it by the package's
    :attr:`~repro.arch.MCMPackage.placement_key`, so schedules that
    differ only in NoP bandwidth, DRAM budget or clocks share one.
    ``assignment`` is never mutated; ``nearest_hops`` fills in as those
    schedules price their NoP edges.
    """

    #: :func:`place`'s chiplet ids of every non-colocated group
    assignment: dict[str, tuple[int, ...]]
    #: ``(src, dst)`` -> each source chiplet's hops to its nearest
    #: destination chiplet (read by ``Schedule._edge``)
    nearest_hops: dict[tuple[str, str], list[int]] = field(
        default_factory=dict)


def default_stage_quadrants(workload: PerceptionWorkload,
                            package: MCMPackage) -> dict[str, tuple[int, ...]]:
    """Uniform stage-to-quadrant partition (Sec. IV: one stage per quadrant).

    With multiple NPU modules on the package, each stage receives its
    quadrant in every module (the paper's Sec. V-B doubles every stage's
    chiplet budget, including the trunks).
    """
    n_stages = len(workload.stages)
    if n_stages > MODULE_QUADRANTS:
        raise ValueError("more stages than quadrants per module")
    mapping: dict[str, tuple[int, ...]] = {}
    for i, stage in enumerate(workload.stages):
        mapping[stage.name] = tuple(
            i + MODULE_QUADRANTS * m for m in range(package.npus))
    return mapping


def place(workload: PerceptionWorkload,
          package: MCMPackage,
          alloc: dict[str, int],
          stage_quadrants: dict[str, tuple[int, ...]],
          colocated: dict[str, str]) -> dict[str, tuple[int, ...]]:
    """Assign ``alloc[group]`` chiplet ids to every non-colocated group."""
    assignment: dict[str, tuple[int, ...]] = {}
    prev_stage_ids: list[int] = []
    # All hop geometry is read from the package topology's hop table:
    # wraparound-aware on a torus and the seed L1 math on the open mesh.
    topo = package.topology
    table = topo.hop_table
    cell = [topo.cell(c.x, c.y) for c in package.chiplets]
    for stage in workload.stages:
        cells = [c.chiplet_id
                 for q in stage_quadrants[stage.name]
                 for c in package.quadrant(q)]
        free = sorted(cells)
        placed_this_stage: list[int] = []
        for group in stage.topo_order():
            if group.name in colocated:
                continue
            n = alloc.get(group.name, 0)
            if n <= 0:
                raise ValueError(f"group {group.name} has no chiplets")
            if n > len(free):
                raise ValueError(
                    f"stage {stage.name}: not enough chiplets for "
                    f"{group.name} (need {n}, have {len(free)})")
            anchors = [cid for dep in group.depends_on
                       for cid in assignment.get(dep, ())]
            if not anchors:
                anchors = prev_stage_ids
            # The anchor term of the score is fixed for the whole group
            # and the peer term is a running minimum over the chiplets
            # chosen so far, so precompute the former (each free cell's
            # hops to its nearest anchor) and update the latter with one
            # row lookup per chosen chiplet: O(free * anchors + n * free)
            # per group instead of O(n * free * (anchors + chosen)).
            # Scores (and the cid tie-break) are identical to scoring
            # from scratch.
            inf = float("inf")
            anchor_d: dict[int, float]
            if anchors:
                near = topo.nearest_hops([cell[a] for a in anchors],
                                         [cell[cid] for cid in free])
                anchor_d = dict(zip(free, near))
            else:
                anchor_d = {cid: 0.0 for cid in free}
            peer_d = {cid: inf for cid in free}
            # ``free`` stays sorted, so keeping the first strictly
            # smaller score reproduces the (score, cid) tie-break.  The
            # peer-distance refresh and the next pick's argmin share one
            # pass over the free list.
            best = free[0]
            best_score = None
            for cid in free:
                score = anchor_d[cid]
                if best_score is None or score < best_score:
                    best, best_score = cid, score
            free.remove(best)
            chosen = [best]
            while len(chosen) < n:
                last = table[cell[best]]
                nxt = free[0]
                nxt_score = None
                for cid in free:
                    d = last[cell[cid]]
                    if d < peer_d[cid]:
                        peer_d[cid] = d
                    score = anchor_d[cid] + 0.5 * peer_d[cid]
                    if nxt_score is None or score < nxt_score:
                        nxt, nxt_score = cid, score
                best = nxt
                free.remove(best)
                chosen.append(best)
            assignment[group.name] = tuple(chosen)
            placed_this_stage.extend(chosen)
        prev_stage_ids = placed_this_stage
    return assignment
