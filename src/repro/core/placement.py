"""NoP-aware placement of scheduled groups onto mesh coordinates.

The paper observes (Sec. IV-D) that large feature-map producers must sit
close to their consumers to bound NoP overheads.  We use a deterministic
greedy placement: stages own their quadrants; groups are placed in
dependency order, and each chiplet is chosen to minimize hop distance to
the group's already-placed producers (falling back to the previous stage's
chiplets for stage-entry groups), with a mild contiguity bonus so sharded
groups stay clustered.

Each stage is placed from a handful of inputs: the package's chiplet grid,
the stage's quadrants, the chiplets that anchor it (the previous stage's,
plus any already-placed producer outside the stage) and each non-colocated
group's name, dependencies and chiplet count.  Allocations that agree on
those for one stage place it alike, so :func:`place` takes an optional
caller-owned :data:`StagePlacements` table keyed by exactly them, and a
sweep places each distinct stage once however many allocations share it.
"""

from __future__ import annotations

from ..arch import MCMPackage
from ..arch.package import MODULE_QUADRANTS
from ..workloads.graph import PerceptionWorkload

#: one stage's ``(group, chiplet ids)`` pairs in placement order, by
#: ``(grid, quadrants, previous stage's chiplets sorted, groups, outside
#: anchors)`` (see :func:`place`), owned by one caller for a run.
StagePlacements = dict[tuple, tuple[tuple[str, tuple[int, ...]], ...]]


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
          colocated: dict[str, str],
          stages: StagePlacements | None = None
          ) -> dict[str, tuple[int, ...]]:
    """Assign ``alloc[group]`` chiplet ids to every non-colocated group.

    ``stages`` is the caller's table of earlier stage placements: a stage
    found there is reused, and one placed here is added to it (``None``
    uses a table of this call's own).
    """
    if stages is None:
        stages = {}
    assignment: dict[str, tuple[int, ...]] = {}
    prev_stage_ids: tuple[int, ...] = ()
    for stage in workload.stages:
        groups = tuple((g.name, g.depends_on, alloc.get(g.name, 0))
                       for g in stage.topo_order()
                       if g.name not in colocated)
        local = {name for name, _, _ in groups}
        # Producers placed by an earlier stage anchor their consumers
        # here too; ``Stage.topo_order`` allows such dependencies.
        outside = tuple((dep, assignment[dep]) for _, deps, _ in groups
                        for dep in deps
                        if dep not in local and dep in assignment)
        quads = stage_quadrants[stage.name]
        key = (package.grid, quads, prev_stage_ids, groups, outside)
        placed = stages.get(key)
        if placed is None:
            placed = stages[key] = _place_stage(
                package, stage.name, quads, prev_stage_ids, groups,
                dict(outside))
        assignment.update(placed)
        # Anchors are read as a set (each free chiplet's nearest one),
        # so sorting them lets stages placed in another order share.
        prev_stage_ids = tuple(sorted(cid for _, ids in placed
                                      for cid in ids))
    return assignment


def _place_stage(package: MCMPackage, stage_name: str,
                 quads: tuple[int, ...], prev_stage_ids: tuple[int, ...],
                 groups: tuple[tuple[str, tuple[str, ...], int], ...],
                 placed: dict[str, tuple[int, ...]]
                 ) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Place one stage's ``(name, depends_on, n)`` groups, in order.

    ``placed`` holds the chiplets of producers outside the stage; each
    group placed here joins it for the groups after it.
    """
    # All hop geometry is read from the package topology's hop table:
    # wraparound-aware on a torus and the seed L1 math on the open mesh.
    topo = package.topology
    table = topo.hop_table
    cell = package.grid.cells
    free = sorted(c.chiplet_id for q in quads for c in package.quadrant(q))
    out: list[tuple[str, tuple[int, ...]]] = []
    for name, depends_on, n in groups:
        if n <= 0:
            raise ValueError(f"group {name} has no chiplets")
        if n > len(free):
            raise ValueError(
                f"stage {stage_name}: not enough chiplets for "
                f"{name} (need {n}, have {len(free)})")
        anchors = ([cid for dep in depends_on for cid in placed.get(dep, ())]
                   or prev_stage_ids)
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
        placed[name] = tuple(chosen)
        out.append((name, placed[name]))
    return tuple(out)
