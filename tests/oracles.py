"""Reference implementations the tests compare the model against.

Each oracle here is slower or more literal than the code it checks, and
no command runs it:

* :class:`StreamSimulator` streams frames job by job through a schedule,
  an independent check of ``Schedule.pipe_latency_s`` and its DRAM gate.
* :func:`split_plane` cuts the bands whose shapes
  ``repro.core.sharding._band_shapes`` derives without building them.
* :func:`min_hop_map` is the seed's two-pass L1 distance transform, the
  reference for the topology's hop tables (:func:`topology_hop_map`).
* :func:`dominates` is the pairwise Pareto definition that
  ``repro.design.pareto_indices`` must agree with.
* :func:`validate_workload` checks that the built workloads are
  well-formed.
* :func:`schedule_heterogeneous` composes Table I's Het(k) flow by hand,
  the reference for ``run_scenario``'s trunk columns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.arch import NoPTopology, simba_package
from repro.core.dse import TrunkConfig, TrunkDSE
from repro.core.schedule import GroupSchedule, Schedule
from repro.core.sharding import MODE_PIPELINE
from repro.core.throughput import ThroughputMatcher
from repro.workloads import build_perception_workload
from repro.workloads.graph import LayerGroup, PerceptionWorkload
from repro.workloads.layers import Layer, LayerKind

# ----------------------------------------------------------------------
# Discrete-event simulation of a scheduled pipeline over a frame stream
# ----------------------------------------------------------------------
#
# The analytical Schedule predicts steady-state pipelining latency as the
# busiest chiplet's per-frame busy time.  The simulator validates that
# prediction by actually streaming frames through the schedule: every
# (group, chiplet) job is executed in frame order against chiplet
# availability and group dependencies, including NoP edge latencies and
# pipeline-segment chaining.  The event loop is deterministic: frames are
# admitted in order and each chiplet serves jobs FIFO, so a simple
# time-propagation pass suffices (no priority queue needed).


@dataclass(frozen=True)
class FrameRecord:
    """One frame's journey through the pipeline."""

    index: int
    arrival_s: float
    departure_s: float

    @property
    def latency_s(self) -> float:
        return self.departure_s - self.arrival_s


@dataclass(frozen=True)
class StreamResult:
    """Aggregate statistics of a streamed simulation."""

    frames: tuple[FrameRecord, ...]
    measured_pipe_s: float
    predicted_pipe_s: float
    steady_latency_s: float
    first_frame_latency_s: float
    sustainable_fps: float
    chiplet_occupancy: dict
    target_fps: float

    @property
    def meets_target_fps(self) -> bool:
        return self.sustainable_fps >= self.target_fps

    @property
    def prediction_error(self) -> float:
        """Relative error of the analytical pipe-latency prediction."""
        if self.measured_pipe_s == 0:
            return 0.0
        return abs(self.measured_pipe_s - self.predicted_pipe_s) \
            / self.measured_pipe_s


class StreamSimulator:
    """Stream frames through a schedule and measure what actually happens."""

    def __init__(self, schedule: Schedule, target_fps: float = 30.0):
        if target_fps <= 0:
            raise ValueError("target_fps must be positive")
        self.schedule = schedule
        self.target_fps = target_fps
        self._edge_latency = self._collect_edge_latencies()

    # ------------------------------------------------------------------

    def _collect_edge_latencies(self) -> dict[tuple[str, str], float]:
        return {(e.src_group, e.dst_group): e.latency_s
                for e in self.schedule.nop_edges()
                if e.src_group != e.dst_group}

    def _stage_links(self) -> dict[str, list[str]]:
        """(terminal, source) pairs across consecutive stages."""
        workload = self.schedule.workload
        links: dict[str, list[str]] = {}
        for prev, nxt in zip(workload.stages, workload.stages[1:]):
            dependents = {d for g in prev.groups for d in g.depends_on}
            terminals = [g.name for g in prev.groups
                         if g.name not in dependents]
            for g in nxt.groups:
                if not g.depends_on:
                    links[g.name] = terminals
        return links

    # ------------------------------------------------------------------

    def run(self, n_frames: int = 32,
            arrival_period_s: float | None = None) -> StreamResult:
        """Simulate ``n_frames`` admitted every ``arrival_period_s``.

        With the default back-to-back admission (period 0) the pipeline
        runs at full throughput and the measured inter-departure time is
        the empirical pipelining latency.
        """
        if n_frames < 2:
            raise ValueError("need at least 2 frames to measure throughput")
        if arrival_period_s is not None and arrival_period_s < 0:
            raise ValueError("arrival_period_s must be non-negative")
        # ``is None`` (not truthiness): an explicit period of 0.0 must stay
        # distinguishable from "no period given" for callers that compute
        # the period (a computed 0.0 means back-to-back on purpose).
        period = 0.0 if arrival_period_s is None else arrival_period_s
        schedule = self.schedule
        workload = schedule.workload
        stage_links = self._stage_links()

        chiplet_free: dict[int, float] = {
            c.chiplet_id: 0.0 for c in schedule.package.chiplets}
        busy_total: dict[int, float] = {cid: 0.0 for cid in chiplet_free}

        # DRAM is one more FIFO resource: each frame's weights and camera
        # inputs must stream through the interface before its first groups
        # can start, and the channel serves frames in order.  Without an
        # attached budget (dram_time 0) this is the seed behavior.
        dram_time = schedule.dram_time_s
        dram_free = 0.0

        frames: list[FrameRecord] = []
        for f in range(n_frames):
            arrival = f * period
            if dram_time:
                stream_start = max(arrival, dram_free)
                dram_free = stream_start + dram_time
                ready_at = dram_free
            else:
                ready_at = arrival
            finish: dict[str, float] = {}
            for stage in workload.stages:
                for group in stage.topo_order():
                    gs = schedule.groups[group.name]
                    deps = list(group.depends_on)
                    deps += stage_links.get(group.name, [])
                    ready = ready_at
                    for dep in deps:
                        edge = self._edge_latency.get((dep, group.name), 0.0)
                        ready = max(ready, finish[dep] + edge)
                    finish[group.name] = self._execute_group(
                        group.name, gs, ready, chiplet_free, busy_total)
            departure = max(finish.values())
            frames.append(FrameRecord(f, arrival, departure))

        # Keep at least two frames in the steady window so ``inter`` is
        # never empty (n_frames == 2 would otherwise silently measure 0).
        half = min(n_frames // 2, n_frames - 2)
        steady = frames[half:]
        inter = [b.departure_s - a.departure_s
                 for a, b in zip(steady, steady[1:])]
        measured_pipe = sum(inter) / len(inter)
        horizon = frames[-1].departure_s
        occupancy = {cid: (busy_total[cid] / horizon if horizon else 0.0)
                     for cid in busy_total}
        sustainable = 1.0 / measured_pipe if measured_pipe > 0 else float(
            "inf")
        return StreamResult(
            frames=tuple(frames),
            measured_pipe_s=measured_pipe,
            predicted_pipe_s=schedule.pipe_latency_s,
            steady_latency_s=steady[-1].latency_s,
            first_frame_latency_s=frames[0].latency_s,
            sustainable_fps=sustainable,
            chiplet_occupancy=occupancy,
            target_fps=self.target_fps,
        )

    def _execute_group(self, name: str, gs: GroupSchedule, ready: float,
                       chiplet_free: dict, busy_total: dict) -> float:
        """Run one group for one frame; returns its finish time."""
        if gs.host is not None:
            host_id = self.schedule.chiplets_of(name)[0]
            start = max(ready, chiplet_free[host_id])
            end = start + gs.plan.span_s
            chiplet_free[host_id] = end
            busy_total[host_id] += gs.plan.span_s
            return end

        ids = gs.chiplet_ids
        busys = gs.plan.per_chiplet_busy
        if gs.plan.mode == MODE_PIPELINE:
            # Segments chain within a frame; each (instance, segment)
            # chiplet serves frames FIFO.
            segments = gs.plan.segments
            instances = len(ids) // segments
            finish = ready
            for inst in range(instances):
                t = ready
                for seg in range(segments):
                    idx = inst * segments + seg
                    cid = ids[idx]
                    start = max(t, chiplet_free[cid])
                    t = start + busys[idx]
                    chiplet_free[cid] = t
                    busy_total[cid] += busys[idx]
                finish = max(finish, t)
            return finish

        # instances / rows / single: all chiplets work concurrently.
        finish = ready
        for cid, dur in zip(ids, busys):
            start = max(ready, chiplet_free[cid])
            end = start + dur
            chiplet_free[cid] = end
            busy_total[cid] += dur
            finish = max(finish, end)
        return finish


def stream_validate(schedule: Schedule, n_frames: int = 32,
                    target_fps: float = 30.0) -> StreamResult:
    """Convenience wrapper: stream frames and return the measurements."""
    return StreamSimulator(schedule, target_fps).run(n_frames)


# ----------------------------------------------------------------------
# Row bands
# ----------------------------------------------------------------------

def split_plane(layer: Layer, n: int, index: int) -> Layer:
    """Split a layer's output plane into ``n`` bands and take band ``index``.

    2D planes split along rows; 1D token sets (``out_h == 1``) split along
    the token axis.  Bands divide the axis as evenly as possible: the
    first ``size % n`` bands get one row (or token) more.
    """
    if layer.out_h > 1:
        axis, size, tag, unit = "out_h", layer.out_h, "r", "rows"
    else:
        axis, size, tag, unit = "out_w", layer.out_w, "c", "tokens"
    if not 1 <= n <= size:
        raise ValueError(f"{layer.name}: cannot split {size} {unit} {n} ways")
    if not 0 <= index < n:
        raise ValueError(f"shard index {index} out of range for n={n}")
    base, extra = divmod(size, n)
    return replace(layer, name=f"{layer.name}@{tag}{index}/{n}",
                   **{axis: base + (1 if index < extra else 0)})


# ----------------------------------------------------------------------
# Hop maps
# ----------------------------------------------------------------------

def min_hop_map(mesh_w: int, mesh_h: int,
                sources: list[tuple[int, int]]) -> list[list[int]]:
    """Min XY-routed hops from every open-mesh cell to the nearest source.

    The seed's two-pass L1 distance transform over the mesh, identical
    to ``min(|dx| + |dy|)`` because the mesh has no holes.  Indexed
    ``[x][y]``.
    """
    inf = mesh_w + mesh_h  # exceeds any reachable distance
    dist = [inf] * (mesh_w * mesh_h)  # flat, index x * mesh_h + y
    for x, y in sources:
        dist[x * mesh_h + y] = 0
    for x in range(mesh_w):
        base = x * mesh_h
        for y in range(mesh_h):
            i = base + y
            d = dist[i]
            if x and dist[i - mesh_h] + 1 < d:
                d = dist[i - mesh_h] + 1
            if y and dist[i - 1] + 1 < d:
                d = dist[i - 1] + 1
            dist[i] = d
    last_x, last_y = mesh_w - 1, mesh_h - 1
    for x in range(last_x, -1, -1):
        base = x * mesh_h
        for y in range(last_y, -1, -1):
            i = base + y
            d = dist[i]
            if x < last_x and dist[i + mesh_h] + 1 < d:
                d = dist[i + mesh_h] + 1
            if y < last_y and dist[i + 1] + 1 < d:
                d = dist[i + 1] + 1
            dist[i] = d
    return [dist[x * mesh_h:(x + 1) * mesh_h] for x in range(mesh_w)]


def topology_hop_map(topo: NoPTopology,
                     sources: list[tuple[int, int]]) -> list[list[int]]:
    """``topo.nearest_hops`` of grid coordinates for every cell, indexed
    ``[x][y]`` like :func:`min_hop_map`."""
    w = topo.width
    near = topo.nearest_hops([topo.cell(x, y) for x, y in sources],
                             range(w * topo.height))
    return [near[x::w] for x in range(w)]


# ----------------------------------------------------------------------
# Pareto dominance
# ----------------------------------------------------------------------

def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether ``a`` Pareto-dominates ``b`` (every objective at least as
    good, at least one strictly better; all objectives lower-is-better).
    """
    if len(a) != len(b):
        raise ValueError(
            f"objective vectors differ in length: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b)) and \
        any(x < y for x, y in zip(a, b))


# ----------------------------------------------------------------------
# Workload validation: structural diagnostics for layer graphs
# ----------------------------------------------------------------------
#
# Catches authoring mistakes that would silently skew the cost analysis:
# channel-width discontinuities inside a serial chain, dangling group
# dependencies, shard-axis declarations that cannot hold, and stage wiring
# that the scheduler's quadrant allocation cannot place.
# ``validate_workload`` returns a list of :class:`Diagnostic` records (an
# empty list means the workload is well-formed); ``check_workload``
# raises on any error-severity finding.

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding."""

    severity: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.location}: {self.message}"


class WorkloadValidationError(ValueError):
    """Raised by :func:`check_workload` when errors are present."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        lines = "\n".join(str(d) for d in diagnostics)
        super().__init__(f"workload validation failed:\n{lines}")


#: layer kinds whose output channel count feeds the next layer's reduction
_CHANNEL_PRODUCERS = frozenset({
    LayerKind.CONV, LayerKind.DWCONV, LayerKind.DECONV, LayerKind.DENSE,
})
_CHANNEL_CONSUMERS = frozenset({
    LayerKind.CONV, LayerKind.DECONV, LayerKind.DENSE,
})


def _check_chain(group: LayerGroup) -> list[Diagnostic]:
    """Channel continuity along a serial layer chain.

    Attention matmuls (activation x activation) and vector ops legally
    break the weight-channel flow, so the check tracks the most recent
    channel-producing layer and only compares consumer reductions against
    it.
    """
    findings: list[Diagnostic] = []
    last_channels: int | None = None
    last_name = ""
    for layer in group.layers:
        if (layer.kind in _CHANNEL_CONSUMERS
                and not layer.weights_are_activations
                and last_channels is not None
                and layer.c != last_channels):
            findings.append(Diagnostic(
                WARNING, f"{group.name}/{layer.name}",
                f"reduction width {layer.c} does not match the {last_name} "
                f"output width {last_channels} (concat/residual inputs "
                f"must account for the difference)"))
        if layer.kind in _CHANNEL_PRODUCERS and \
                not layer.weights_are_activations:
            last_channels = layer.k
            last_name = layer.name
        elif layer.kind is LayerKind.CONCAT:
            last_channels = layer.k
            last_name = layer.name
        elif layer.kind is LayerKind.MATMUL:
            last_channels = layer.k
            last_name = layer.name
    return findings


def _check_group(group: LayerGroup) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    if group.row_shardable and group.instances == 1:
        narrow = min(layer.out_h if layer.out_h > 1 else layer.out_w
                     for layer in group.layers)
        if narrow < 2:
            findings.append(Diagnostic(
                WARNING, group.name,
                "declared row-shardable but the narrowest layer has a "
                "single row/token"))
    if group.pipeline_splittable and len(group.layers) < 2:
        findings.append(Diagnostic(
            ERROR, group.name,
            "declared pipeline-splittable with fewer than 2 layers"))
    return findings


def validate_workload(workload: PerceptionWorkload) -> list[Diagnostic]:
    """Collect all structural findings for a workload."""
    findings: list[Diagnostic] = []
    for stage in workload.stages:
        names = {g.name for g in stage.groups}
        for group in stage.groups:
            for dep in group.depends_on:
                if dep not in names:
                    findings.append(Diagnostic(
                        ERROR, f"{stage.name}/{group.name}",
                        f"depends on unknown group {dep!r}"))
            findings.extend(_check_group(group))
            findings.extend(_check_chain(group))
        try:
            stage.topo_order()
        except ValueError as exc:
            findings.append(Diagnostic(ERROR, stage.name, str(exc)))
    if len(workload.stages) > 4:
        findings.append(Diagnostic(
            ERROR, "workload",
            "more than 4 stages cannot map onto the quadrant allocation"))
    return findings


def check_workload(workload: PerceptionWorkload) -> None:
    """Raise :class:`WorkloadValidationError` on error-level findings."""
    findings = [d for d in validate_workload(workload)
                if d.severity == ERROR]
    if findings:
        raise WorkloadValidationError(findings)


# ----------------------------------------------------------------------
# Table I's Het(k) flow, composed by hand
# ----------------------------------------------------------------------

def schedule_heterogeneous(ws_chiplets: int = 2, tolerance: float = 1.05,
                           npus: int = 1) -> tuple[Schedule, TrunkConfig]:
    """Match the default workload on the OS package, then DSE its trunks.

    The trunk DSE runs at ``tolerance`` times the schedule's base latency
    over the trunk quadrants' capacity.  ``ws_chiplets`` is k of Het(k):
    0 gives the OS-only trunk mapping.
    """
    workload = build_perception_workload()
    package = simba_package(npus=npus)
    schedule = ThroughputMatcher(workload, package, tolerance).run()
    dse = TrunkDSE(stage=workload.stage("TRUNKS"),
                   l_cstr_s=tolerance * schedule.base_latency_s,
                   chiplets=sum(package.quadrant_capacity(q)
                                for q in schedule.stage_quadrants["TRUNKS"]))
    return schedule, dse.search(ws_chiplets)
