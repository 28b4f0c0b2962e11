"""Algorithm 1: nested greedy throughput matching (the paper's Sec. IV).

The matcher allocates chiplets to the four perception stages (one mesh
quadrant each), establishes the base pipelining latency from the FE+BFPN
stage (Sec. IV-A), then repeatedly relieves bottlenecks by data sharding:

* **Phase "match"** (the paper's outer/inner loops): every stage whose pipe
  latency exceeds ``tolerance * Lat_base`` shards its bottleneck group one
  step at a time within the stage's quadrant budget.
* **Phase "global"**: while the global bottleneck group can still be
  sharded inside its stage budget, do so.  This is what extends sharding
  when two NPUs are active (Fig. 10): T_FUSE exhausts its 12-frame
  sharding, FE+BFPN is partitioned into two pipeline segments, and the
  spatial projections split further.
* **Phase "absorb"** (the paper's surplus reallocation, line 13-14):
  leftover quadrant chiplets are granted to the stage-local bottleneck
  groups even when the stage already meets the target — e.g. the spatial
  FFN's four-fold sharding in Fig. 6.

Every decision is appended to :attr:`Schedule.trace`, which reproduces the
step plot of Fig. 10.

These phases are the *allocation*.  They read each stage's layer groups,
accelerator and chiplet capacity, the tolerance and the colocation
threshold, and nothing else: the NoP topology, link bandwidth, DRAM
budget and chiplet coordinates are read only afterwards, by placement
and the :class:`Schedule` (Sec. IV-D, Fig. 9).  So
:meth:`ThroughputMatcher.run` takes an optional caller-owned
:data:`AllocationTable`, and packages that differ only in what placement
reads share one :class:`Allocation`.  Placement in turn reads only the
package's chiplet grid (:attr:`~repro.arch.MCMPackage.grid`, one per
topology and NPU count), so each allocation keeps one assignment per
grid, and packages that differ only in link bandwidth or DRAM share it.

Below the allocation, NoP geometry is shared across allocations too:
``run`` also takes the caller's
:data:`~repro.core.placement.StagePlacements` (each stage placed once per
what placing it reads) and :data:`~repro.core.schedule.EdgeTables` (one
table of priced NoP edges per chiplet grid and link, keyed by what an
edge reads), so allocations that agree on a stage or an edge share it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch import DramBudget, MCMPackage, simba_package
from ..arch.topology import ChipletGrid
from ..cost import AcceleratorConfig
from ..workloads.graph import LayerGroup, PerceptionWorkload
from ..workloads.pipeline import build_perception_workload
from .placement import StagePlacements, default_stage_quadrants, place
from .plancache import PlanFamily, get_plan_cache
from .schedule import EdgeTables, GroupSchedule, Schedule, TraceStep
from .sharding import GroupPlan, plan_group, shard_step

#: hard cap on algorithm iterations (safety against pathological configs)
_MAX_STEPS = 1000


@dataclass
class _State:
    """Mutable algorithm state shared by the phases.

    Allocatable plans change only through :meth:`set_plan`, which keeps
    each stage's chiplet use, the chiplets left package-wide and every
    allocatable group's effective pipe current, so the phases and each
    trace step read them instead of rescanning the workload.
    """

    #: each allocatable group's plan family on its stage's accelerator,
    #: resolved once per allocation for every shard step's probes
    families: dict[str, PlanFamily]
    #: starts with the colocated groups' fixed 1-chiplet plans only
    plans: dict[str, GroupPlan]
    colocated: dict[str, str]
    capacity: dict[str, int]
    trace: list[TraceStep]
    step: int = 0

    def __post_init__(self) -> None:
        # Colocated groups keep their 1-chiplet plans for the whole run,
        # so each host's extra span is a constant.
        self._hosted_extra: dict[str, float] = {}
        for guest, host in self.colocated.items():
            self._hosted_extra[host] = (self._hosted_extra.get(host, 0.0)
                                        + self.plans[guest].span_s)
        self._used = dict.fromkeys(self.capacity, 0)
        self._left = sum(self.capacity.values())
        self._pipe: dict[str, float] = {}

    def set_plan(self, group: LayerGroup, plan: GroupPlan) -> None:
        """Install an allocatable group's plan and update the totals."""
        old = self.plans.get(group.name)
        grown = plan.n_chiplets - (0 if old is None else old.n_chiplets)
        self._used[group.stage] += grown
        self._left -= grown
        self.plans[group.name] = plan
        pipe = plan.pipe_latency_s
        extra = self._hosted_extra.get(group.name)
        self._pipe[group.name] = pipe if extra is None else pipe + extra

    def budget_left(self, stage_name: str) -> int:
        return self.capacity[stage_name] - self._used[stage_name]

    def effective_pipe(self, group: LayerGroup) -> float:
        """Group pipe latency plus any colocated spans it hosts."""
        return self._pipe[group.name]

    def global_pipe_s(self) -> float:
        return max(self._pipe.values())

    def record(self, phase: str, action: str, group: str) -> None:
        self.step += 1
        self.trace.append(TraceStep(
            step=self.step,
            phase=phase,
            action=action,
            group=group,
            n_chiplets=self.plans[group].n_chiplets,
            pipe_latency_ms=self.global_pipe_s() * 1e3,
            chiplets_remaining=self._left,
        ))


@dataclass(frozen=True)
class Allocation:
    """Algorithm 1's result before placement.

    Shared by every schedule served from one :data:`AllocationTable`
    entry, so it is never mutated: each schedule copies the trace.  Only
    ``assignments`` grows, by one entry per package geometry placed.
    """

    #: every group's plan, colocated groups' fixed 1-chiplet plans too
    plans: dict[str, GroupPlan]
    #: colocated group -> the group whose chiplet it rides on
    colocated: dict[str, str]
    base_latency_s: float
    trace: tuple[TraceStep, ...]
    #: :func:`~repro.core.placement.place`'s chiplet ids per group, by
    #: :attr:`~repro.arch.MCMPackage.grid`
    assignments: dict[ChipletGrid, dict[str, tuple[int, ...]]] = field(
        default_factory=dict, repr=False, compare=False)


#: allocations by :meth:`ThroughputMatcher.run`'s key, owned by one caller
#: for the span of a run.
AllocationTable = dict[tuple, Allocation]


class ThroughputMatcher:
    """Nested greedy throughput matching over an MCM package."""

    def __init__(self,
                 workload: PerceptionWorkload | None = None,
                 package: MCMPackage | None = None,
                 tolerance: float = 1.05,
                 colocate_threshold_s: float = 0.005,
                 dram: DramBudget | None = None,
                 dram_bytes_per_frame: int = 0):
        if not tolerance >= 1.0:  # NaN fails too
            raise ValueError("tolerance must be >= 1.0")
        if dram_bytes_per_frame < 0:
            raise ValueError("dram_bytes_per_frame must be non-negative")
        self.workload = workload or build_perception_workload()
        self.package = package or simba_package()
        self.tolerance = tolerance
        self.colocate_threshold_s = colocate_threshold_s
        # DRAM is accounting-only: the sharding decisions are unchanged
        # (streaming more weights is not relieved by more chiplets), but
        # the returned Schedule's steady-state metrics are throttled by
        # the budget.  None keeps the seed compute-only behavior.
        self.dram = dram
        self.dram_bytes_per_frame = dram_bytes_per_frame

    # ------------------------------------------------------------------

    def run(self, allocations: AllocationTable | None = None,
            placements: StagePlacements | None = None,
            edges: EdgeTables | None = None) -> Schedule:
        """Allocate chiplets to groups (Algorithm 1), then place them.

        ``allocations`` is the caller's table of earlier allocations: an
        allocation found there is reused, and one computed here is added
        to it.  ``placements`` and ``edges`` are its tables of stage
        placements and priced NoP edges, handed to :func:`place` and the
        schedule.  ``None`` uses a table of this call's own.  Every key
        is exactly what its entry reads, so the schedule is the same
        either way.
        """
        if allocations is None:
            allocations = {}
        if edges is None:
            edges = {}
        stage_quadrants = default_stage_quadrants(self.workload, self.package)
        accel_of: dict[str, AcceleratorConfig] = {}
        capacity: dict[str, int] = {}
        for stage in self.workload.stages:
            quads = stage_quadrants[stage.name]
            accel_of[stage.name] = self.package.engine(quads[0])
            capacity[stage.name] = sum(
                self.package.quadrant_capacity(q) for q in quads)
        # Everything the allocation reads, and nothing placement reads:
        # an explicit grid changes a capacity and a quadrant override an
        # accelerator, so both miss; a topology, NoP bandwidth or DRAM
        # budget of its own does not.
        key = (self.tolerance, self.colocate_threshold_s,
               tuple((tuple(stage.groups), accel_of[stage.name],
                      capacity[stage.name])
                     for stage in self.workload.stages))
        allocation = allocations.get(key)
        if allocation is None:
            allocation = allocations[key] = self._allocate(accel_of, capacity)

        colocated = allocation.colocated
        grid = self.package.grid
        assignment = allocation.assignments.get(grid)
        if assignment is None:
            alloc = {name: plan.n_chiplets
                     for name, plan in allocation.plans.items()
                     if name not in colocated}
            assignment = allocation.assignments[grid] = place(
                self.workload, self.package, alloc, stage_quadrants,
                colocated, placements)
        groups = {}
        for stage in self.workload.stages:
            for g in stage.groups:
                if g.name in colocated:
                    groups[g.name] = GroupSchedule(
                        plan=allocation.plans[g.name], chiplet_ids=(),
                        host=colocated[g.name])
                else:
                    groups[g.name] = GroupSchedule(
                        plan=allocation.plans[g.name],
                        chiplet_ids=assignment[g.name])
        schedule = Schedule(
            package=self.package,
            workload=self.workload,
            stage_quadrants=stage_quadrants,
            groups=groups,
            tolerance=self.tolerance,
            base_latency_s=allocation.base_latency_s,
            trace=list(allocation.trace),
            dram=self.dram,
            dram_bytes_per_frame=self.dram_bytes_per_frame,
        )
        schedule.edges = edges.setdefault((grid, self.package.nop), {})
        return schedule

    def _allocate(self, accel_of: dict[str, AcceleratorConfig],
                  capacity: dict[str, int]) -> Allocation:
        """Algorithm 1 proper: Lat_base, then the three phases."""
        state = self._initial_state(accel_of, capacity)
        base = self._base_latency(state)
        self._phase_match(state, self.tolerance * base)
        self._phase_global(state)
        self._phase_absorb(state)
        return Allocation(plans=state.plans, colocated=state.colocated,
                          base_latency_s=base, trace=tuple(state.trace))

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _initial_state(self, accel_of: dict[str, AcceleratorConfig],
                       capacity: dict[str, int]) -> _State:
        colocated = self._find_colocated(accel_of)
        cache = get_plan_cache()
        state = _State(
            families={g.name: cache.family(g, accel_of[g.stage])
                      for g in self.workload.all_groups()
                      if g.name not in colocated},
            plans={g.name: plan_group(g, 1, accel_of[g.stage])
                   for g in self.workload.all_groups()
                   if g.name in colocated},
            colocated=colocated,
            capacity=capacity,
            trace=[],
        )
        for si, stage in enumerate(self.workload.stages):
            accel = accel_of[stage.name]
            allocatable = [g for g in stage.groups
                           if g.name not in colocated]
            for g in allocatable:
                n = 1
                if si == 0 and g.instances > 1:
                    # The FE stage starts with one chiplet per concurrent
                    # model (Sec. IV-A: "at least 8 chiplets need to be
                    # initially allocated"), but never starves the
                    # stage's remaining groups of their first chiplet.
                    reserved = sum(1 for other in allocatable
                                   if other.name != g.name
                                   and other.name not in state.plans)
                    avail = state.budget_left(stage.name) - reserved
                    n = max(1, min(g.instances, avail))
                state.set_plan(g, plan_group(g, n, accel))
        for stage in self.workload.stages:
            for g in stage.groups:
                if g.name not in colocated:
                    state.record("init", "allocate", g.name)
        return state

    def _find_colocated(self, accel_of) -> dict[str, str]:
        """Tiny groups ride on a consumer's (else a producer's) chiplet."""
        colocated: dict[str, str] = {}
        for stage in self.workload.stages:
            for g in stage.groups:
                plan = plan_group(g, 1, accel_of[stage.name])
                if plan.span_s >= self.colocate_threshold_s:
                    continue
                consumers = [h for h in stage.groups
                             if g.name in h.depends_on]
                host = None
                for cand in consumers + [
                        self.workload.find_group(d) for d in g.depends_on]:
                    if cand.stage != g.stage:
                        # A host in another stage lives on another
                        # quadrant's (possibly different, per-quadrant
                        # heterogeneous) hardware, which would mis-price
                        # the hosted span; dependencies are intra-stage
                        # in every current workload, so this never
                        # triggers today.
                        continue
                    if cand.name not in colocated:
                        host = cand.name
                        break
                if host is not None:
                    colocated[g.name] = host
        return colocated

    def _base_latency(self, state: _State) -> float:
        """Lat_base: the FE+BFPN stage's pipelining latency (Sec. IV-A)."""
        first = self.workload.stages[0]
        return max(state.effective_pipe(g) for g in first.groups
                   if g.name not in state.colocated)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _shard_once(self, state: _State, group: LayerGroup,
                    phase: str) -> bool:
        """Try one sharding step of ``group``; returns True on success."""
        current = state.plans[group.name]
        max_n = current.n_chiplets + state.budget_left(group.stage)
        plan = shard_step(state.families[group.name], current, max_n)
        if plan is None:
            return False
        state.set_plan(group, plan)
        state.record(phase, "shard", group.name)
        return True

    def _phase_match(self, state: _State, target: float) -> None:
        """Stage-local matching to the base pipelining latency."""
        for stage in self.workload.stages[1:]:
            for _ in range(_MAX_STEPS):
                groups = [g for g in stage.groups
                          if g.name not in state.colocated]
                bottleneck = max(groups, key=state.effective_pipe)
                if state.effective_pipe(bottleneck) <= target:
                    break
                if not self._shard_once(state, bottleneck, "match"):
                    break

    def _phase_global(self, state: _State) -> None:
        """Reduce the global bottleneck while budgets allow."""
        blocked: set[str] = set()
        for _ in range(_MAX_STEPS):
            candidates = [g for s in self.workload.stages for g in s.groups
                          if g.name not in state.colocated
                          and g.name not in blocked]
            if not candidates:
                break
            bottleneck = max(candidates, key=state.effective_pipe)
            if state.effective_pipe(bottleneck) < state.global_pipe_s():
                break  # true bottleneck is unshardable
            if not self._shard_once(state, bottleneck, "global"):
                blocked.add(bottleneck.name)

    def _phase_absorb(self, state: _State) -> None:
        """Grant leftover quadrant chiplets to stage-local bottlenecks."""
        for stage in self.workload.stages:
            blocked: set[str] = set()
            for _ in range(_MAX_STEPS):
                if state.budget_left(stage.name) <= 0:
                    break
                groups = [g for g in stage.groups
                          if g.name not in state.colocated
                          and g.name not in blocked]
                if not groups:
                    break
                bottleneck = max(groups, key=state.effective_pipe)
                if not self._shard_once(state, bottleneck, "absorb"):
                    blocked.add(bottleneck.name)


def match_throughput(workload: PerceptionWorkload | None = None,
                     package: MCMPackage | None = None,
                     tolerance: float = 1.05,
                     dram: DramBudget | None = None,
                     dram_bytes_per_frame: int = 0) -> Schedule:
    """Convenience wrapper: run Algorithm 1 with defaults."""
    return ThroughputMatcher(workload, package, tolerance,
                             dram=dram,
                             dram_bytes_per_frame=dram_bytes_per_frame).run()
