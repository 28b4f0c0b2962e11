"""Schedule representation and end-to-end performance accounting.

A :class:`Schedule` binds every layer group of the perception workload to a
set of chiplets (via a :class:`~repro.core.sharding.GroupPlan`) and prices
the result:

* **pipe latency** — steady-state pipelining latency: the busiest chiplet's
  per-frame busy time (the paper's "Pipe Lat").
* **E2E latency** — one frame's traversal of the whole pipeline: the sum of
  per-stage critical paths plus NoP transfer latencies (the paper's
  "E2E Lat").
* **energy / EDP** — compute + NoP energy per frame; EDP uses pipe latency
  (this matches the paper's Figs. 5-8 and the 36x256 row of Table II; see
  EXPERIMENTS.md for the one column where the paper's EDP arithmetic is
  not self-consistent).
* **utilization** — useful MACs over all package PE-cycles inside one pipe
  window (steady state).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch import DramBudget, MCMPackage, NoPTransfer, transfer_cost
from ..workloads.graph import LayerGroup, PerceptionWorkload
from .sharding import GroupPlan


@dataclass(frozen=True)
class GroupSchedule:
    """A planned group bound to physical chiplets."""

    plan: GroupPlan
    chiplet_ids: tuple[int, ...]
    #: when set, this tiny group is colocated on the named group's chiplet
    host: str | None = None


@dataclass(frozen=True)
class TraceStep:
    """One decision of the throughput-matching algorithm (for Fig. 10)."""

    step: int
    phase: str
    action: str
    group: str
    n_chiplets: int
    pipe_latency_ms: float
    chiplets_remaining: int


@dataclass(frozen=True)
class NoPEdge:
    """Aggregate NoP traffic between two groups (or inside one pipeline)."""

    src_group: str
    dst_group: str
    payload_bytes: int
    #: mean hop count over the edge's source chiplets
    hops: float
    latency_s: float
    energy_j: float
    #: worst single route (max per-source hop count) on this edge
    max_hops: int = 0


@dataclass
class Schedule:
    """A complete mapping of the perception workload onto an MCM package."""

    package: MCMPackage
    workload: PerceptionWorkload
    stage_quadrants: dict[str, tuple[int, ...]]
    groups: dict[str, GroupSchedule]
    tolerance: float
    base_latency_s: float
    trace: list[TraceStep] = field(default_factory=list)
    #: optional DRAM interface attached to the schedule.  When set, the
    #: steady-state accounting treats DRAM as one more pipeline resource
    #: that must stream ``dram_bytes_per_frame`` per frame: an undersized
    #: budget throttles :attr:`pipe_latency_s` (and everything derived
    #: from it) instead of living in a detached report.  ``None`` keeps
    #: the seed compute-only accounting bit-for-bit.
    dram: DramBudget | None = None
    #: per-frame DRAM traffic (streamed weights + camera inputs); see
    #: :func:`repro.arch.dram.workload_dram_bytes`.
    dram_bytes_per_frame: int = 0
    #: each NoP edge's per-source nearest hops by ``(src, dst)``.  They
    #: depend on the placement alone, so the matcher passes the memo of
    #: its :class:`~repro.core.placement.Placement` and schedules placed
    #: alike share it; link bandwidth is still priced per schedule.
    nearest_hops: dict = field(default_factory=dict, repr=False,
                               compare=False)
    # Memos for the derived metrics below.  A Schedule is immutable once
    # the matcher returns it, and summary()/e2e accounting re-derive the
    # same NoP edges and busy map several times per call without these.
    _edge_memo: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)
    _nop_edges_memo: list | None = field(default=None, init=False,
                                         repr=False, compare=False)
    _pipe_latency_memo: float | None = field(default=None, init=False,
                                             repr=False, compare=False)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def group_schedule(self, name: str) -> GroupSchedule:
        return self.groups[name]

    def chiplets_of(self, name: str) -> tuple[int, ...]:
        """Physical chiplets of a group, resolving colocation chains."""
        seen: set[str] = set()
        gs = self.groups[name]
        while gs.host is not None:
            if name in seen:
                raise ValueError(f"colocation cycle through {name!r}")
            seen.add(name)
            name = gs.host
            gs = self.groups[name]
        if seen:
            return gs.chiplet_ids[:1]
        return gs.chiplet_ids

    @property
    def used_chiplets(self) -> set[int]:
        used: set[int] = set()
        for name in self.groups:
            used.update(self.chiplets_of(name))
        return used

    # ------------------------------------------------------------------
    # Steady-state metrics
    # ------------------------------------------------------------------

    def chiplet_busy(self) -> dict[int, float]:
        """Per-frame busy seconds for every chiplet."""
        busy: dict[int, float] = {c.chiplet_id: 0.0 for c in
                                  self.package.chiplets}
        for name, gs in self.groups.items():
            if gs.host is not None:
                busy[self.chiplets_of(name)[0]] += gs.plan.span_s
            else:
                for cid, t in zip(gs.chiplet_ids, gs.plan.per_chiplet_busy):
                    busy[cid] += t
        return busy

    @property
    def compute_pipe_latency_s(self) -> float:
        """Steady-state pipe latency from compute alone (busiest chiplet)."""
        if self._pipe_latency_memo is None:
            self._pipe_latency_memo = max(self.chiplet_busy().values())
        return self._pipe_latency_memo

    # ------------------------------------------------------------------
    # DRAM steady-state accounting
    # ------------------------------------------------------------------

    @property
    def dram_time_s(self) -> float:
        """Per-frame DRAM streaming time under the attached budget."""
        if self.dram is None:
            return 0.0
        return self.dram.stream_time_s(self.dram_bytes_per_frame)

    @property
    def dram_throttled(self) -> bool:
        """True when DRAM, not compute, sets the steady-state frame rate."""
        return self.dram_time_s > self.compute_pipe_latency_s

    @property
    def dram_energy_j(self) -> float:
        """Per-frame DRAM access energy under the attached budget."""
        if self.dram is None:
            return 0.0
        return self.dram.stream_energy_j(self.dram_bytes_per_frame)

    @property
    def dram_bw_utilization(self) -> float:
        """Fraction of the DRAM budget consumed at the steady-state rate."""
        pipe = self.pipe_latency_s
        if self.dram is None or pipe == 0:
            return 0.0
        return self.dram_time_s / pipe

    @property
    def pipe_latency_s(self) -> float:
        """Steady-state pipe latency: compute, throttled by DRAM if attached.

        DRAM serves frames like one more FIFO pipeline resource, so the
        steady-state inter-departure time is the slower of the busiest
        chiplet and the per-frame DRAM stream (validated by
        :class:`~repro.sim.stream.StreamSimulator`).
        """
        return max(self.compute_pipe_latency_s, self.dram_time_s)

    # ------------------------------------------------------------------
    # NoP traffic
    # ------------------------------------------------------------------

    def _group_output_bytes(self, group: LayerGroup) -> int:
        return group.output_bytes_per_instance * group.instances

    def _edge(self, src: str, dst: str) -> NoPEdge:
        """Price the transfer of src's output into dst's chiplets."""
        memo = self._edge_memo.get((src, dst))
        if memo is not None:
            return memo
        src_group = self.workload.find_group(src)
        payload = self._group_output_bytes(src_group)
        src_ids = self.chiplets_of(src)
        per_src = payload / max(1, len(src_ids))
        near = self.nearest_hops.get((src, dst))
        if near is None:
            # Each source chiplet's hops to its nearest destination
            # chiplet, read from the topology's hop table (so torus
            # wraparound shortens routes here too).
            topo = self.package.topology
            chiplet = self.package.chiplet
            near = self.nearest_hops[(src, dst)] = topo.nearest_hops(
                [topo.cell(c.x, c.y)
                 for c in map(chiplet, self.chiplets_of(dst))],
                [topo.cell(c.x, c.y) for c in map(chiplet, src_ids)])
        total_lat = 0.0
        total_energy = 0.0
        hop_sum = 0.0
        worst_hops = 0
        by_hops: dict[int, NoPTransfer] = {}  # few distinct hop counts
        for hops in near:
            t = by_hops.get(hops)
            if t is None:
                t = transfer_cost(int(per_src), hops, self.package.nop)
                by_hops[hops] = t
            total_lat = max(total_lat, t.latency_s)
            total_energy += t.energy_j
            hop_sum += hops
            if hops > worst_hops:
                worst_hops = hops
        edge = NoPEdge(src, dst, payload, hop_sum / max(1, len(src_ids)),
                       total_lat, total_energy, worst_hops)
        self._edge_memo[(src, dst)] = edge
        return edge

    def _pipeline_internal_edge(self, name: str) -> NoPEdge | None:
        gs = self.groups[name]
        if gs.plan.segments < 2:
            return None
        group = self.workload.find_group(name)
        # Hand-off tensor between segments approximated by the group's
        # per-instance output size, once per extra segment, over one hop
        # (segments are placed adjacently).  Instances pipeline in
        # parallel, so the serialization *latency* per hop is one
        # instance's tensor (pricing the whole group's output here
        # over-counted it by ``instances``x), while the *energies* of the
        # concurrent per-instance transfers are additive.
        payload = group.output_bytes_per_instance
        hops = gs.plan.segments - 1
        t = transfer_cost(payload, 1, self.package.nop)
        return NoPEdge(name, name, payload * hops * group.instances, 1.0,
                       t.latency_s * hops,
                       t.energy_j * hops * group.instances, 1)

    def nop_edges(self) -> list[NoPEdge]:
        """All inter-group and pipeline-internal NoP transfers."""
        if self._nop_edges_memo is not None:
            return self._nop_edges_memo
        edges: list[NoPEdge] = []
        for stage in self.workload.stages:
            for group in stage.groups:
                for dep in group.depends_on:
                    edges.append(self._edge(dep, group.name))
                internal = self._pipeline_internal_edge(group.name)
                if internal is not None:
                    edges.append(internal)
        # Stage boundary transfers: terminal groups feed the next stage's
        # source groups.
        for prev, nxt in zip(self.workload.stages, self.workload.stages[1:]):
            dependents = {d for g in prev.groups for d in g.depends_on}
            terminals = [g for g in prev.groups if g.name not in dependents]
            sources = [g for g in nxt.groups if not g.depends_on]
            for t in terminals:
                for s in sources:
                    edges.append(self._edge(t.name, s.name))
        self._nop_edges_memo = edges
        return edges

    # Float totals below are left folds, not ``sum()``: from Python 3.12
    # on ``sum()`` of floats is compensated, and rows must carry the same
    # bits on every interpreter.

    @property
    def nop_latency_s(self) -> float:
        total = 0.0
        for e in self.nop_edges():
            total += e.latency_s
        return total

    @property
    def nop_energy_j(self) -> float:
        total = 0.0
        for e in self.nop_edges():
            total += e.energy_j
        return total

    @property
    def nop_avg_hops(self) -> float:
        """Mean hop count across all NoP transfers (edges weighted equally).

        The headline topology metric: wraparound links must *demonstrably*
        shorten routes, and this is where it shows.  Not part of
        :meth:`summary` so default artifacts stay byte-stable; the sweep
        runner adds it to rows when the topology axis is set.
        """
        edges = self.nop_edges()
        if not edges:
            return 0.0
        total = 0.0
        for e in edges:
            total += e.hops
        return total / len(edges)

    @property
    def nop_max_hops(self) -> int:
        """Worst single route (per-source hop count) over all transfers."""
        return max((e.max_hops for e in self.nop_edges()), default=0)

    # ------------------------------------------------------------------
    # End-to-end metrics
    # ------------------------------------------------------------------

    def stage_span_s(self, stage_name: str, include_nop: bool = True) -> float:
        """Critical path of one stage (one frame), including intra-stage NoP."""
        stage = self.workload.stage(stage_name)
        edge_lat: dict[tuple[str, str], float] = {}
        if include_nop:
            for g in stage.groups:
                for dep in g.depends_on:
                    edge_lat[(dep, g.name)] = self._edge(dep, g.name).latency_s
        finish: dict[str, float] = {}
        for g in stage.topo_order():
            start = 0.0
            for dep in g.depends_on:
                start = max(start,
                            finish.get(dep, 0.0)
                            + edge_lat.get((dep, g.name), 0.0))
            gs = self.groups[g.name]
            span = gs.plan.span_s
            internal = self._pipeline_internal_edge(g.name)
            if include_nop and internal is not None:
                span += internal.latency_s
            finish[g.name] = start + span
        return max(finish.values(), default=0.0)

    @property
    def e2e_latency_s(self) -> float:
        total = 0.0
        for stage in self.workload.stages:
            total += self.stage_span_s(stage.name)
        # Stage hand-off transfers.
        for prev, nxt in zip(self.workload.stages, self.workload.stages[1:]):
            dependents = {d for g in prev.groups for d in g.depends_on}
            terminals = [g for g in prev.groups if g.name not in dependents]
            sources = [g for g in nxt.groups if not g.depends_on]
            worst = 0.0
            for t in terminals:
                for s in sources:
                    worst = max(worst, self._edge(t.name, s.name).latency_s)
            total += worst
        return total

    @property
    def compute_energy_j(self) -> float:
        total = 0.0
        for gs in self.groups.values():
            total += gs.plan.energy_j
        return total

    @property
    def energy_j(self) -> float:
        return self.compute_energy_j + self.nop_energy_j + self.dram_energy_j

    @property
    def edp_j_ms(self) -> float:
        """Energy-delay product in J*ms, delay = pipe latency (paper)."""
        return self.energy_j * self.pipe_latency_s * 1e3

    @property
    def utilization(self) -> float:
        """Useful MACs over package PE-cycles in one steady-state window.

        Each chiplet contributes cycles at its *own* clock: a quadrant is
        one engine, but per-quadrant overrides may clock quadrants
        differently, so assuming chiplet 0's clock for the whole package
        mis-reports utilization whenever the clocks are not uniform.
        """
        window = self.pipe_latency_s
        pe_cycles = 0.0
        for c in self.package.chiplets:
            pe_cycles += c.accel.pe_count * c.accel.frequency_hz * window
        return self.workload.total_macs / pe_cycles

    def stage_utilization(self) -> dict[str, float]:
        """Useful MACs over PE-cycles per stage's quadrant set.

        The per-quadrant view behind the package number: each stage's
        groups execute on its own quadrants, whose chiplets contribute
        cycles at their *own* clock — so on a per-quadrant heterogeneous
        package this shows which quadrant's hardware is the good (or
        poor) match for its stage, where :attr:`utilization` only
        reports the blend.  Every value is in ``(0, 1]`` in exact
        arithmetic: a chiplet cannot execute more MACs per cycle than
        its native tile holds, nor be busy longer than the window.
        """
        window = self.pipe_latency_s
        out: dict[str, float] = {}
        for stage in self.workload.stages:
            pe_cycles = 0.0
            for q in self.stage_quadrants[stage.name]:
                for c in self.package.quadrant(q):
                    pe_cycles += (c.accel.pe_count * c.accel.frequency_hz
                                  * window)
            out[stage.name] = stage.total_macs / pe_cycles
        return out

    def summary(self) -> dict:
        """Headline metrics as a plain dict (used by experiments/CLI).

        DRAM entries appear only when a budget is attached, so summaries
        (and every artifact built from them) are unchanged for schedules
        produced without a DRAM axis.
        """
        out = {
            "e2e_ms": self.e2e_latency_s * 1e3,
            "pipe_ms": self.pipe_latency_s * 1e3,
            "energy_j": self.energy_j,
            "edp_j_ms": self.edp_j_ms,
            "utilization": self.utilization,
            "nop_latency_ms": self.nop_latency_s * 1e3,
            "nop_energy_j": self.nop_energy_j,
            "used_chiplets": len(self.used_chiplets),
        }
        if self.dram is not None:
            out["compute_pipe_ms"] = self.compute_pipe_latency_s * 1e3
            out["dram_ms"] = self.dram_time_s * 1e3
            out["dram_bw_util"] = self.dram_bw_utilization
            out["dram_energy_j"] = self.dram_energy_j
            out["dram_throttled"] = self.dram_throttled
        return out
