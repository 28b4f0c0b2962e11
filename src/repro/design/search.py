"""Rank-cheap / materialize-frontier package-design search.

The search never runs the scheduler on a non-frontier candidate.  Each
workload variant of the space is built once, and so is each distinct
package (keyed by :meth:`~repro.sweep.scenario.Scenario.package_key`).
Each table ranking keeps is keyed by what it reads: each engine prices
each distinct layer shape of the space once, through the shape memo
:func:`~repro.cost.evaluate_shape`; each stage's serial chain is summed
once per (variant, engine) by shape index; and each (variant, stage
hardware) pair (:func:`stage_hardware`) is scored once with a
closed-form per-stage roofline proxy over those sums.  Target-violating
candidates are pruned, and only the proxy-Pareto frontier (one sort and
sweep) is materialized into full sweep rows by
:func:`~repro.sweep.runner.run_scenario`, through one
:class:`~repro.sweep.runner.RunTables` that already holds the workloads
and packages ranking built.  This is
:func:`repro.core.dse.best_ranked`'s rank-then-materialize idiom lifted
from trunk mappings to whole packages.

Determinism: the proxy is a pure function of the layer costs (one
cost model, the same one the scheduler uses), pruning and dominance
are pure arithmetic, and materialized rows come from the sweep engine's
pure ``run_scenario`` — so the frontier, and its report, are
byte-identical from run to run.  Its float sums are left folds, never
``sum()`` (compensated from Python 3.12 on), so they are byte-identical
across interpreters too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

from ..arch import MCMPackage
from ..core.dse import best_ranked
from ..core.placement import default_stage_quadrants
from ..core.plancache import CacheStats, plan_cache_stats
from ..cost import AcceleratorConfig, LayerCost, evaluate_shape
from ..sweep import runner as runner_module
from ..sweep import scenario as scenario_module
from ..sweep.runner import RunTables, check_ws_budget
from ..sweep.scenario import Scenario, workload_variant
from ..workloads.graph import PerceptionWorkload
from ..workloads.layers import LayerShape
from ..workloads.pipeline import STAGE_TR
from .pareto import pareto_indices
from .space import DesignSpace

#: per stage: each group's ``(instances, layers)``, with each layer as
#: its name and shape index (a layer is its name and its shape).
IndexedStages = tuple[tuple[tuple[int, tuple[tuple[str, int], ...]], ...], ...]
#: per stage: engine -> the stage's serial ``(latency_s, energy_j)``.
StageChains = list[dict[AcceleratorConfig, tuple[float, float]]]
#: per stage: its quadrant engine and chiplet count.
StageHardware = tuple[tuple[AcceleratorConfig, int], ...]


@dataclass(frozen=True)
class DesignTargets:
    """Feasibility targets a candidate's proxy must meet to survive.

    ``None`` disables a target.  The proxy is an optimistic bound (see
    :func:`proxy_objectives`), so pruning on it never discards a design
    whose *materialized* metrics would have met the target.
    """

    pipe_ms: float | None = None
    energy_j: float | None = None

    def __post_init__(self) -> None:
        # Written so that NaN fails the checks too.
        if self.pipe_ms is not None and not self.pipe_ms > 0:
            raise ValueError("target pipe_ms must be positive")
        if self.energy_j is not None and not self.energy_j > 0:
            raise ValueError("target energy_j must be positive")

    def admits(self, pipe_ms: float, energy_j: float) -> bool:
        """Whether a candidate's proxy objectives meet every target."""
        if self.pipe_ms is not None and pipe_ms > self.pipe_ms:
            return False
        if self.energy_j is not None and energy_j > self.energy_j:
            return False
        return True


@dataclass(frozen=True)
class DesignCandidate:
    """One enumerated design with its proxy score and search verdict."""

    #: position in the space's canonical enumeration (stable identity).
    index: int
    scenario: Scenario
    #: per-stage roofline bound on the steady-state pipe latency.
    proxy_pipe_ms: float
    #: per-frame energy bound (work spread evenly across stage cells).
    proxy_energy_j: float
    #: True when a :class:`DesignTargets` bound rejected the candidate.
    pruned: bool


def stage_chains(stages: IndexedStages,
                 accels: Collection[AcceleratorConfig],
                 prices: dict[AcceleratorConfig, dict[int, LayerCost]],
                 ) -> StageChains:
    """Each stage's serial ``(latency_s, energy_j)`` on each engine.

    A stage's serial chain runs every group's layers back to back, once
    per group instance.  It depends only on the workload variant and the
    engine, so one search sums it once per (variant, stage, engine),
    reading each layer's cost from ``prices`` by shape index.
    """
    chains: StageChains = []
    for groups in stages:
        serial_of: dict[AcceleratorConfig, tuple[float, float]] = {}
        for accel in accels:
            row = prices[accel]
            serial_s = 0.0
            serial_j = 0.0
            for instances, layers in groups:
                chain_s = 0.0
                chain_j = 0.0
                for _, i in layers:
                    cost = row[i]
                    chain_s += cost.latency_s
                    chain_j += cost.energy_j
                serial_s += instances * chain_s
                serial_j += instances * chain_j
            serial_of[accel] = (serial_s, serial_j)
        chains.append(serial_of)
    return chains


def stage_hardware(workload: PerceptionWorkload,
                   package: MCMPackage) -> StageHardware:
    """Each stage's quadrant engine and chiplet count: all the proxy
    reads of a package (every workload variant has the same stages)."""
    return tuple(
        (package.engine(quads[0]),
         sum(package.quadrant_capacity(q) for q in quads))
        for quads in default_stage_quadrants(workload, package).values())


def proxy_objectives(chains: StageChains,
                     hardware: StageHardware) -> tuple[float, float]:
    """Closed-form ``(pipe_ms, energy_j)`` bound for one candidate.

    Per stage (stages own their quadrants, Sec. IV, and a quadrant is
    one engine): the stage's ``n`` chiplets each process the stage's
    serial chain (:func:`stage_chains`) on the stage's engine — perfect
    work spreading, ``serial_latency / n_chiplets`` (``hardware`` gives
    each stage's engine and ``n``).  The pipe proxy is the slowest stage;
    the energy proxy charges each stage its chain energy.  NoP transfers,
    DRAM contention, and sharding overheads are deliberately absent: the
    proxy is an *optimistic* bound used only to rank and prune, never a
    reported metric — frontier candidates get real rows from the sweep
    engine.  Both sums are ``n``-step left folds, not ``serial / n``: the
    two round differently, and ``tests/data/frozen_design_proxies.json``
    pins the fold.
    """
    pipe_s = 0.0
    energy_j = 0.0
    for serial_of, (engine, n) in zip(chains, hardware):
        serial_s, serial_j = serial_of[engine]
        rate = 0.0
        stage_j = 0.0
        for _ in range(n):
            rate += 1.0 / serial_s
            stage_j += serial_j
        stage_s = 1.0 / rate
        stage_j /= n
        if stage_s > pipe_s:
            pipe_s = stage_s
        energy_j += stage_j
    return pipe_s * 1e3, energy_j


@dataclass
class DesignSearchResult:
    """Everything one :meth:`DesignSearch.run` produced.

    ``candidates`` covers the whole space in enumeration order;
    ``frontier`` is its non-pruned, non-dominated subset (same order);
    ``rows`` are the frontier's materialized sweep rows, aligned with
    ``frontier``.  ``plan_cache`` carries the materialization's plan-cache
    statistics — reported beside the frontier document, never inside it
    (they depend on what the process priced before; the document does
    not).
    """

    space: DesignSpace
    targets: DesignTargets
    candidates: list[DesignCandidate]
    frontier: list[DesignCandidate]
    rows: list[dict]
    #: distinct (layer, accel) pairs the proxy phase priced; layers of
    #: one shape share one pricing per accel.
    priced_pairs: int
    #: the frontier rows' plan-cache counter delta.
    plan_cache: CacheStats

    @property
    def best(self) -> dict | None:
        """The frontier row with the lowest materialized EDP.

        Ranked with :func:`repro.core.dse.best_ranked` —
        ``(edp_j_ms, pipe_ms)`` with first-seen tie-break, the trunk
        DSE's feasible-candidate ordering — over *real* rows, not proxy
        scores.
        """
        _, row = best_ranked(
            ((row["edp_j_ms"], row["pipe_ms"]), row) for row in self.rows)
        return row

    def stats(self) -> dict:
        """Deterministic search accounting for the frontier report."""
        pruned = sum(c.pruned for c in self.candidates)
        dominated = len(self.candidates) - pruned - len(self.frontier)
        return {
            "candidates": len(self.candidates),
            "pruned": pruned,
            "dominated": dominated,
            "frontier": len(self.frontier),
            "materialized": len(self.rows),
            "priced_pairs": self.priced_pairs,
            "materialized_fraction": round(
                len(self.rows) / len(self.candidates), 6),
        }

    def report(self) -> dict:
        """The deterministic Pareto frontier document (see
        :func:`repro.analysis.design_frontier_report`)."""
        from ..analysis import design_frontier_report
        return design_frontier_report(self)


def _index_shapes(workload: PerceptionWorkload,
                  shape_ids: dict[LayerShape, int]) -> IndexedStages:
    """A workload's stages with each layer's shape as its index in
    ``shape_ids`` (new shapes join it), so no ``Layer`` is hashed."""
    return tuple(
        tuple((group.instances,
               tuple((layer.name,
                      shape_ids.setdefault(layer.shape, len(shape_ids)))
                     for layer in group.layers))
              for group in stage.groups)
        for stage in workload.stages)


class DesignSearch:
    """Search a :class:`DesignSpace` for its latency/energy frontier."""

    def __init__(self,
                 space: DesignSpace,
                 targets: DesignTargets | None = None):
        self.space = space
        self.targets = targets or DesignTargets()

    def run(self) -> DesignSearchResult:
        scenarios = self.space.candidates()
        # One set of run tables, local to this call: ranking builds each
        # workload variant and each distinct package (never mutated) into
        # it, and the frontier rows find them there.  Ranking's own
        # tables key by variant name and shape index; ``tables.workloads``
        # keys by config, because Scenario.build() reads it.
        tables = RunTables()
        packages = tables.packages
        workloads: dict[str, PerceptionWorkload] = {}
        # One shape index over every variant, so a shape two variants
        # share is priced once per engine.
        shape_ids: dict[LayerShape, int] = {}
        indexed: dict[str, IndexedStages] = {}
        # Each package key's stage-hardware id, given once, so no later
        # key hashes an engine; each candidate's (variant, hardware id).
        hardware_of: dict[tuple, int] = {}
        hardware_ids: dict[StageHardware, int] = {}
        scored: list[tuple[str, int]] = []
        # The trunk DSE's engines, by variant: its pricing covers them.
        trunk_accels: dict[str, dict[AcceleratorConfig, None]] = {}
        for scenario in scenarios:
            name = scenario.workload
            workload = workloads.get(name)
            if workload is None:
                config = workload_variant(name)
                # Resolved through the module at call time, like
                # Scenario.build(), so a wrapper there sees every build.
                workload = workloads[name] = tables.workloads[config] = \
                    scenario_module.build_perception_workload(config)
                indexed[name] = _index_shapes(workload, shape_ids)
            key = scenario.package_key()
            hardware_id = hardware_of.get(key)
            if hardware_id is None:
                package = packages[key] = scenario.package()
                hardware_id = hardware_of[key] = hardware_ids.setdefault(
                    stage_hardware(workload, package), len(hardware_ids))
            scored.append((name, hardware_id))
            if scenario.het_ws_budget is not None:
                # The proxy never reads the budget, so check it here: an
                # over-budget candidate must fail whether or not it
                # reaches the frontier.
                package = packages[key]
                trunks = default_stage_quadrants(workload, package)[STAGE_TR]
                check_ws_budget(scenario.het_ws_budget,
                                sum(package.quadrant_capacity(q)
                                    for q in trunks))
                trunk_accels.setdefault(name, {}).update(
                    dict.fromkeys(scenario.trunk_accels()))
        hardware = list(hardware_ids)
        pairs = dict.fromkeys(scored)
        # The quadrant engines each variant's candidates place.
        chiplet_accels: dict[str, dict[AcceleratorConfig, None]] = {}
        for name, hardware_id in pairs:
            chiplet_accels.setdefault(name, {}).update(
                (engine, None) for engine, _ in hardware[hardware_id])
        # Each engine prices each shape its variants use once, and
        # unions their layers into its distinct (layer, engine) pairs.
        shapes = list(shape_ids)
        prices: dict[AcceleratorConfig, dict[int, LayerCost]] = {}
        priced: dict[AcceleratorConfig, dict[tuple[str, int], None]] = {}
        for name, stages in indexed.items():
            layers = dict.fromkeys(layer for groups in stages
                                   for _, chain in groups for layer in chain)
            used = dict.fromkeys(i for _, i in layers)
            for accel in {**chiplet_accels[name],
                          **trunk_accels.get(name, {})}:
                row = prices.setdefault(accel, {})
                for i in used:
                    if i not in row:
                        row[i] = evaluate_shape(shapes[i], accel)
                priced.setdefault(accel, {}).update(layers)
        chains = {name: stage_chains(indexed[name], chiplet_accels[name],
                                     prices)
                  for name in indexed}
        # The proxy reads only the variant and the stage hardware, so
        # each (variant, stage hardware) pair is scored once.
        proxies = {pair: proxy_objectives(chains[pair[0]], hardware[pair[1]])
                   for pair in pairs}
        candidates = []
        for index, (scenario, pair) in enumerate(zip(scenarios, scored)):
            pipe_ms, energy_j = proxies[pair]
            candidates.append(DesignCandidate(
                index=index,
                scenario=scenario,
                proxy_pipe_ms=pipe_ms,
                proxy_energy_j=energy_j,
                pruned=not self.targets.admits(pipe_ms, energy_j)))
        kept = [c for c in candidates if not c.pruned]
        frontier = [kept[i] for i in pareto_indices(
            [(c.proxy_pipe_ms, c.proxy_energy_j) for c in kept])]
        before = plan_cache_stats()
        # Resolved through the module at call time, so a wrapper there
        # sees every frontier row.
        rows = [runner_module.run_scenario(c.scenario, tables)
                for c in frontier]
        return DesignSearchResult(
            space=self.space,
            targets=self.targets,
            candidates=candidates,
            frontier=frontier,
            rows=rows,
            priced_pairs=sum(len(layers) for layers in priced.values()),
            plan_cache=plan_cache_stats() - before)
