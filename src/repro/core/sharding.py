"""Sharding transforms and per-group chiplet plans (paper Sec. IV).

The scheduler shards work at *group* granularity, in three legal ways that
mirror the paper's moves:

* **instances** — distribute independent model/data copies (8 cameras,
  12 temporal frames, 3 detector heads) across chiplets.  The paper's
  T_FUSE FFN exhausts this mode at 12 ("each temporal frame is processed
  independently on a separate chiplet").
* **rows** — split every layer's output plane into bands, one chiplet per
  band (the paper's data sharding of fusion projections).  The cost model
  re-prices each band, so speedups degrade naturally once bands stop
  aligning with the dataflow's 16-wide tile.
* **pipeline** — cut a deep serial chain into contiguous segments that form
  a chiplet pipeline (the paper partitions FE+BFPN "into two pipelining
  stages at the fourth convolutional ResNet-18 block").

``plan_group`` evaluates the best mode for a given chiplet count and
returns a :class:`GroupPlan` with per-chiplet busy times (pipe-latency
contributions), the single-frame span, and energy.  Plans live in the
plan cache, one family per (group, accelerator) keyed by chiplet count;
every count a family computes reads its one :class:`GroupCosts` table,
priced by shape on the family's first miss.  The matcher resolves each
group's family once per allocation and probes counts through it
(:func:`shard_step`).

Every float sum here is an explicit left fold (an inline loop, never
``sum()``): from Python 3.12 on ``sum()`` of floats is compensated, and
plans must carry the same bits on every interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..cost import AcceleratorConfig, evaluate_shape
from ..workloads.graph import LayerGroup
from ..workloads.layers import Layer, LayerShape
from .plancache import PlanFamily, get_plan_cache

#: shard mode identifiers
MODE_SINGLE = "single"
MODE_INSTANCES = "instances"
MODE_ROWS = "rows"
MODE_PIPELINE = "pipeline"


@dataclass(frozen=True)
class GroupPlan:
    """How one layer group runs on ``n_chiplets`` chiplets."""

    group_name: str
    n_chiplets: int
    mode: str
    #: busy seconds per frame for each assigned chiplet (len == n_chiplets)
    per_chiplet_busy: tuple[float, ...]
    #: seconds for one frame to traverse the group (compute only)
    span_s: float
    energy_j: float
    macs: int
    #: pipeline mode only: number of segments per instance
    segments: int = 1

    @property
    def pipe_latency_s(self) -> float:
        """The group's contribution to steady-state pipeline latency."""
        return max(self.per_chiplet_busy)


@dataclass(frozen=True)
class GroupCosts:
    """One group's layer chain priced once on one accelerator.

    A :class:`~repro.core.plancache.PlanFamily` builds it on its first
    plan miss and serves it to every later miss, so each chiplet count's
    plan reads these instead of pricing the chain again.  Layers are
    priced by shape, so equal shapes share one cost.
    """

    group: LayerGroup
    accel: AcceleratorConfig
    #: each layer's latency, in chain order
    latencies: tuple[float, ...]
    #: one instance's serial chain, folded like ``chain_latency_s`` and
    #: ``chain_energy_j``: the same values in the same order
    chain_latency_s: float
    chain_energy_j: float
    #: the first layer of each distinct :attr:`Layer.shape`, in chain
    #: order, and each layer's index into it
    shape_layers: tuple[Layer, ...]
    shape_of: tuple[int, ...]
    max_row_shards: int

    @classmethod
    def price(cls, group: LayerGroup,
              accel: AcceleratorConfig) -> "GroupCosts":
        latencies = []
        chain_s = 0.0
        chain_j = 0.0
        index: dict[LayerShape, int] = {}
        shape_layers = []
        shape_of = []
        for layer in group.layers:
            cost = evaluate_shape(layer.shape, accel)
            latencies.append(cost.latency_s)
            chain_s += cost.latency_s
            chain_j += cost.energy_j
            i = index.get(layer.shape)
            if i is None:
                i = index[layer.shape] = len(shape_layers)
                shape_layers.append(layer)
            shape_of.append(i)
        return cls(group=group, accel=accel, latencies=tuple(latencies),
                   chain_latency_s=chain_s, chain_energy_j=chain_j,
                   shape_layers=tuple(shape_layers),
                   shape_of=tuple(shape_of),
                   max_row_shards=max_row_shards(group))


def _band_shapes(layer: Layer,
                 n: int) -> tuple[int, LayerShape, LayerShape]:
    """Shapes of the ``n`` bands a row shard cuts, without the bands.

    2D planes split along rows; 1D token sets (``out_h == 1``) split
    along the token axis.  Returns ``(extra, big, small)``: bands
    ``0..extra-1`` have shape ``big``, one row (or token) more than the
    others' ``small``.
    """
    shape = layer.shape
    if layer.out_h > 1:
        base, extra = divmod(layer.out_h, n)
        big = shape[:1] + (base + 1,) + shape[2:]
        small = shape[:1] + (base,) + shape[2:]
    else:
        base, extra = divmod(layer.out_w, n)
        big = shape[:2] + (base + 1,) + shape[3:]
        small = shape[:2] + (base,) + shape[3:]
    return extra, big, small


def max_row_shards(group: LayerGroup) -> int:
    """Largest legal row-shard factor (bounded by the narrowest layer)."""
    return min(
        layer.out_h if layer.out_h > 1 else layer.out_w
        for layer in group.layers)


def _balanced_segments(latencies: Sequence[float], k: int) -> list[int]:
    """Contiguous min-max partition of a latency chain into ``k`` segments.

    Returns segment boundaries as a list of start indices (length k).
    Implemented as a parametric search over the max-segment bound
    (feasibility checked by a greedy O(n) packing), which replaces the
    former O(k*n^2) dynamic program.  The optimal bound is a segment sum
    the greedy forms, so the search jumps between such sums instead of
    bisecting to float adjacency: the max segment is the exact optimum.
    """
    n = len(latencies)
    if k >= n:
        return list(range(n))

    def pack(bound: float) -> tuple[bool, float]:
        """Greedy packing under ``bound``: whether ``k`` segments hold the
        chain, and the largest sum formed if so (it packs alike), else the
        smallest sum a cut refused (every lower bound packs these cuts)."""
        count, acc = 1, 0.0
        formed, refused = 0.0, float("inf")
        for lat in latencies:
            total = acc + lat
            if total > bound:
                refused = min(refused, total)
                count += 1
                if count > k:
                    return False, refused
                formed = max(formed, acc)
                acc = lat
            else:
                acc = total
        return True, max(formed, acc)

    # Feasibility is monotone in the bound: ``high`` stays feasible and
    # no bound below ``low`` is, and each pass moves one end past ``mid``.
    mid = low = max(latencies)
    high = 0.0
    for lat in latencies:
        high += lat
    while low < high:
        feasible, bound = pack(mid)
        if feasible:
            high = bound
        else:
            low = bound
        mid = (low + high) / 2
        if mid >= high:  # adjacent floats: try the lower one
            mid = low

    # Re-pack greedily under the optimum ``high``, forcing early cuts
    # when the remaining layers are only just enough to keep every
    # remaining segment non-empty (a forced one-layer segment <= high).
    bounds = [0]
    acc = 0.0
    for i, lat in enumerate(latencies):
        if i > 0 and len(bounds) < k and (
                n - i == k - len(bounds) or acc + lat > high):
            bounds.append(i)
            acc = lat
        else:
            acc += lat
    return bounds


def _instance_counts(instances: int, n: int) -> list[int]:
    base, extra = divmod(instances, n)
    return [base + (1 if j < extra else 0) for j in range(n)]


def _plan_single(costs: GroupCosts) -> GroupPlan:
    group = costs.group
    busy = costs.chain_latency_s * group.instances
    return GroupPlan(
        group_name=group.name,
        n_chiplets=1,
        mode=MODE_SINGLE,
        per_chiplet_busy=(busy,),
        span_s=busy,
        energy_j=costs.chain_energy_j * group.instances,
        macs=group.total_macs,
    )


def _plan_instances(costs: GroupCosts, n: int) -> GroupPlan | None:
    group = costs.group
    if group.instances < 2 or n > group.instances:
        return None
    per_instance = costs.chain_latency_s
    counts = _instance_counts(group.instances, n)
    busy = tuple(c * per_instance for c in counts)
    return GroupPlan(
        group_name=group.name,
        n_chiplets=n,
        mode=MODE_INSTANCES,
        per_chiplet_busy=busy,
        span_s=busy[0],
        energy_j=costs.chain_energy_j * group.instances,
        macs=group.total_macs,
    )


def _plan_rows(costs: GroupCosts, n: int) -> GroupPlan | None:
    group = costs.group
    if not group.row_shardable or group.instances != 1:
        return None
    if n > costs.max_row_shards:
        return None
    # Splitting a plane of S rows n ways yields only two distinct band
    # shapes — S % n bands of S//n + 1 rows, the rest of S//n — and a
    # band's cost depends only on its shape, so each distinct layer
    # shape's <= 2 band shapes are priced once.
    bands = []
    for layer in costs.shape_layers:
        extra, big_shape, small_shape = _band_shapes(layer, n)
        bands.append((extra,
                      evaluate_shape(big_shape, costs.accel)
                      if extra else None,
                      evaluate_shape(small_shape, costs.accel)))
    chain = [bands[i] for i in costs.shape_of]
    # Shard ``idx`` takes the big band of every layer with idx < extra,
    # so the shards between two consecutive distinct ``extra`` values
    # share one chain (one band pattern).  Each pattern's chain is summed
    # once in layer order, and energy still adds once per shard in index
    # order: the plan is bit-identical to summing every shard's chain.
    cuts = sorted({extra for extra, _, _ in bands} | {0, n})
    busy: list[float] = []
    energy = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        chain_s = 0.0
        chain_j = 0.0
        for extra, big, small in chain:
            cost = big if lo < extra else small
            chain_s += cost.latency_s
            chain_j += cost.energy_j
        busy += [chain_s] * (hi - lo)
        for _ in range(lo, hi):
            energy += chain_j
    return GroupPlan(
        group_name=group.name,
        n_chiplets=n,
        mode=MODE_ROWS,
        per_chiplet_busy=tuple(busy),
        span_s=max(busy),
        energy_j=energy,
        macs=group.total_macs,
    )


def _plan_pipeline(costs: GroupCosts, n: int) -> GroupPlan | None:
    group = costs.group
    if not group.pipeline_splittable:
        return None
    if n % group.instances != 0:
        return None
    k = n // group.instances
    lats = costs.latencies
    if k < 2 or k > len(lats):
        return None
    bounds = _balanced_segments(lats, k)
    seg_lat = []
    span = 0.0
    for si, start in enumerate(bounds):
        end = bounds[si + 1] if si + 1 < len(bounds) else len(lats)
        seg = 0.0
        for lat in lats[start:end]:
            seg += lat
        seg_lat.append(seg)
        span += seg
    busy = tuple(seg_lat) * group.instances
    return GroupPlan(
        group_name=group.name,
        n_chiplets=n,
        mode=MODE_PIPELINE,
        per_chiplet_busy=busy,
        span_s=span,
        energy_j=costs.chain_energy_j * group.instances,
        macs=group.total_macs,
        segments=k,
    )


def _compute_plan_group(costs: GroupCosts, n: int) -> GroupPlan | None:
    """Uncached best-plan computation (a plan family's miss)."""
    if n == 1:
        return _plan_single(costs)
    candidates = [
        plan for plan in (
            _plan_instances(costs, n),
            _plan_rows(costs, n),
            _plan_pipeline(costs, n),
        ) if plan is not None
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda p: (p.pipe_latency_s, p.span_s))


def plan_group(group: LayerGroup, n: int,
               accel: AcceleratorConfig) -> GroupPlan | None:
    """Best plan for running ``group`` on exactly ``n`` chiplets.

    Returns None when no shard mode can use ``n`` chiplets.  Results are
    served from the process-wide :class:`~repro.core.plancache.PlanCache`,
    so every caller (matcher, DSE, sweeps) shares one memo table; it reads
    the ``(group, accel)`` pair's family, whose :class:`GroupCosts` every
    miss reads.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cache = get_plan_cache()
    return cache.plan(cache.family(group, accel), n)


def next_shard_step(group: LayerGroup, n: int, max_n: int,
                    accel: AcceleratorConfig,
                    current: GroupPlan | None = None) -> GroupPlan | None:
    """Smallest n' > n (<= max_n) that strictly reduces pipe latency.

    This is the inner-loop move of Algorithm 1: one sharding step of the
    bottleneck group.  Chiplet counts that cannot help (e.g. 5 chiplets for
    8 instances, no better than 4) are skipped.

    ``current`` lets a caller that already holds the plan for ``n`` (the
    matcher always does) skip re-deriving it; when omitted it is served
    from the shared plan cache.  The guard below checks the group and
    chiplet count; a :class:`GroupPlan` does not record its accelerator,
    so pricing ``current`` under the same ``accel`` as this call is the
    caller's responsibility.
    """
    if current is None:
        current = plan_group(group, n, accel)
    elif current.n_chiplets != n or current.group_name != group.name:
        raise ValueError(
            f"current plan is for {current.group_name!r} on "
            f"{current.n_chiplets} chiplets, not {group.name!r} on {n}")
    if current is None:
        return None
    return shard_step(get_plan_cache().family(group, accel), current, max_n)


def shard_step(family: PlanFamily, current: GroupPlan,
               max_n: int) -> GroupPlan | None:
    """:func:`next_shard_step` from a plan family the caller resolved.

    ``current`` is the family's plan on ``current.n_chiplets`` chiplets;
    each count above it, up to ``max_n``, is one lookup in the family.
    """
    cache = get_plan_cache()
    pipe = current.pipe_latency_s
    for n_next in range(current.n_chiplets + 1, max_n + 1):
        plan = cache.plan(family, n_next)
        if plan is not None and plan.pipe_latency_s < pipe:
            return plan
    return None
