"""Rank-cheap / materialize-frontier package-design search.

The search never runs the scheduler on a non-frontier candidate.  Each
workload variant of the space is built once, and so is each distinct
package (keyed by :meth:`~repro.sweep.scenario.Scenario.package_key`);
the variant's distinct ``(layer, accel)`` pairs over its candidates'
engines are priced through the shape memo
:func:`~repro.cost.evaluate_shape`, once per distinct layer shape, and
each stage's serial chain is summed once per engine.  Each
(variant, package) pair is scored once with a closed-form per-stage
roofline proxy over those sums, target-violating candidates are pruned,
and only the proxy-Pareto frontier (one sort and sweep) is materialized
into full sweep rows by :func:`~repro.sweep.runner.run_scenario`,
through one :class:`~repro.sweep.runner.RunTables` that already holds
the workloads and packages ranking built.  This is
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
from typing import Collection, Mapping

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
from ..workloads.layers import Layer
from ..workloads.pipeline import STAGE_TR
from .pareto import pareto_indices
from .space import DesignSpace

#: one (layer, engine) pricing candidate.
Pair = tuple[Layer, AcceleratorConfig]
#: stage name -> engine -> the stage's serial ``(latency_s, energy_j)``.
StageChains = dict[str, dict[AcceleratorConfig, tuple[float, float]]]


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


def stage_chains(workload: PerceptionWorkload,
                 accels: Collection[AcceleratorConfig],
                 costs: Mapping[Pair, LayerCost]) -> StageChains:
    """Each stage's serial ``(latency_s, energy_j)`` on each engine.

    A stage's serial chain runs every group's layers back to back, once
    per group instance.  It depends only on the workload variant and the
    engine, so one search sums it once per (variant, stage, engine).
    """
    chains: StageChains = {}
    for stage in workload.stages:
        serial_of: dict[AcceleratorConfig, tuple[float, float]] = {}
        for accel in accels:
            serial_s = 0.0
            serial_j = 0.0
            for group in stage.groups:
                chain_s = 0.0
                chain_j = 0.0
                for layer in group.layers:
                    cost = costs[(layer, accel)]
                    chain_s += cost.latency_s
                    chain_j += cost.energy_j
                serial_s += group.instances * chain_s
                serial_j += group.instances * chain_j
            serial_of[accel] = (serial_s, serial_j)
        chains[stage.name] = serial_of
    return chains


def proxy_objectives(workload: PerceptionWorkload,
                     package: MCMPackage,
                     chains: StageChains) -> tuple[float, float]:
    """Closed-form ``(pipe_ms, energy_j)`` bound for one candidate.

    Per stage (stages own their quadrants, Sec. IV, and a quadrant is
    one engine): the stage's ``n`` chiplets each process the stage's
    serial chain (:func:`stage_chains`) on the stage's engine — perfect
    work spreading, ``serial_latency / n_chiplets``.  The pipe proxy is
    the slowest stage; the energy proxy charges each stage its chain
    energy.  NoP transfers, DRAM contention, and sharding overheads are
    deliberately absent: the proxy is an *optimistic* bound used only
    to rank and prune, never a reported metric — frontier candidates
    get real rows from the sweep engine.  Both sums are ``n``-step left
    folds, not ``serial / n``: the two round differently, and
    ``tests/data/frozen_design_proxies.json`` pins the fold.
    """
    stage_quadrants = default_stage_quadrants(workload, package)
    pipe_s = 0.0
    energy_j = 0.0
    for stage in workload.stages:
        quads = stage_quadrants[stage.name]
        serial_s, serial_j = chains[stage.name][package.engine(quads[0])]
        n = sum(package.quadrant_capacity(q) for q in quads)
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


class DesignSearch:
    """Search a :class:`DesignSpace` for its latency/energy frontier."""

    def __init__(self,
                 space: DesignSpace,
                 targets: DesignTargets | None = None):
        self.space = space
        self.targets = targets or DesignTargets()

    def run(self) -> DesignSearchResult:
        scenarios = self.space.candidates()
        keys = [scenario.package_key() for scenario in scenarios]
        # One set of run tables, local to this call: ranking builds each
        # workload variant and each distinct package (never mutated) into
        # it, and the frontier rows find them there.  Candidates that
        # differ only in axes the package does not read (tolerance,
        # workload, DRAM, trunk-DSE budget) share a package and its
        # quadrant engines.
        tables = RunTables()
        workloads, packages = tables.workloads, tables.packages
        engines: dict[tuple, dict[AcceleratorConfig, None]] = {}
        # Per-variant tables, by config: the chiplet engines its
        # candidates place, and the engines its pricing covers (those
        # plus the trunk DSE's).
        configs = [workload_variant(scenario.workload)
                   for scenario in scenarios]
        chiplet_accels: dict = {}
        priced_accels: dict = {}
        for scenario, config, key in zip(scenarios, configs, keys):
            if config not in workloads:
                # Resolved through the module at call time, like
                # Scenario.build(), so a wrapper there sees every build.
                workloads[config] = \
                    scenario_module.build_perception_workload(config)
                chiplet_accels[config] = {}
                priced_accels[config] = {}
            if key not in packages:
                package = packages[key] = scenario.package()
                engines[key] = dict.fromkeys(
                    map(package.engine, range(package.quadrant_count)))
            accels = engines[key]
            chiplet_accels[config].update(accels)
            priced_accels[config].update(accels)
            if scenario.het_ws_budget is not None:
                # The proxy never reads the budget, so check it here: an
                # over-budget candidate must fail whether or not it
                # reaches the frontier.
                package = packages[key]
                trunks = default_stage_quadrants(workloads[config],
                                                 package)[STAGE_TR]
                check_ws_budget(scenario.het_ws_budget,
                                sum(package.quadrant_capacity(q)
                                    for q in trunks))
                priced_accels[config].update(
                    dict.fromkeys(scenario.trunk_accels()))
        # Every distinct (layer, engine) pair gets a cost, priced through
        # the shape memo: layers of one shape cost the same, so each
        # (shape, engine) is priced once.
        costs: dict[Pair, LayerCost] = {}
        for config, workload in workloads.items():
            layers = workload.all_layers()
            for accel in priced_accels[config]:
                for layer in layers:
                    if (layer, accel) not in costs:
                        costs[layer, accel] = evaluate_shape(layer.shape,
                                                             accel)
        chains = {config: stage_chains(workload, chiplet_accels[config],
                                       costs)
                  for config, workload in workloads.items()}
        # The proxy reads only the workload and the package, so each
        # (variant, package) pair is scored once.
        proxies: dict[tuple, tuple[float, float]] = {}
        candidates = []
        for index, (scenario, config, key) in enumerate(
                zip(scenarios, configs, keys)):
            scored = (config, key)
            if scored not in proxies:
                proxies[scored] = proxy_objectives(
                    workloads[config], packages[key], chains[config])
            pipe_ms, energy_j = proxies[scored]
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
            priced_pairs=len(costs),
            plan_cache=plan_cache_stats() - before)
