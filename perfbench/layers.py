"""Benchmark-side span wrappers around each layer's public functions.

Each :class:`Target` names a function where its *caller* resolves it: a
module global that another module imported by name is patched in that
importing module, a method on its class.  A target that no longer exists
is skipped, so its layer reports 0 calls instead of raising; the
benchmark keeps working when a later change deletes a layer.

Besides spans, wrappers can tally a count from a target's result (pairs
priced) and collect the distinct first arguments it saw (workload
configs built).  Memo counters come from the program's own counters,
read before and after a pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from .spans import Tracer


def _returned_int(result) -> int:
    return result if isinstance(result, int) else 0


def _returned_len(result) -> int:
    return len(result) if hasattr(result, "__len__") else 0


@dataclass(frozen=True)
class Target:
    """One wrapped function: span name, where it is resolved, what."""

    span: str
    module: str
    #: attribute path inside ``module``: ``name`` or ``Class.method``.
    path: str
    #: adds ``tally(result)`` to the :data:`PAIRS_PRICED` counter.
    tally: Callable | None = None
    #: record the distinct first positional arguments of the calls.
    distinct_args: bool = False


#: tallied pairs priced by the batch-pricing layer.
PAIRS_PRICED = "cost.batch.pairs_priced"

TARGETS: tuple[Target, ...] = (
    Target("sweep.runner.run_scenario", "repro.sweep.runner", "run_scenario"),
    Target("sweep.runner.merge", "repro.sweep.runner", "ScenarioSweep.merge"),
    Target("sweep.runner.rows_json", "repro.sweep.runner",
           "SweepResult.rows_json"),
    Target("sweep.scenario.build", "repro.sweep.scenario", "Scenario.build"),
    Target("workloads.build", "repro.sweep.scenario",
           "build_perception_workload", distinct_args=True),
    Target("core.throughput.match", "repro.core.throughput",
           "ThroughputMatcher.run"),
    Target("core.sharding.plan", "repro.core.sharding", "plan_group"),
    Target("core.sharding.plan", "repro.core.throughput", "plan_group"),
    Target("core.sharding.plan", "repro.core.dse", "plan_group"),
    Target("core.dse.search", "repro.core.dse", "TrunkDSE.search"),
    Target("core.schedule.summary", "repro.core.schedule",
           "Schedule.summary"),
    Target("cost.batch.price", "repro.sweep.runner", "scenario_pairs"),
    Target("cost.batch.price", "repro.sweep.runner", "seed_pairs",
           tally=_returned_int),
    Target("cost.batch.price", "repro.core.sharding", "seed_pairs",
           tally=_returned_int),
    Target("cost.batch.price", "repro.core.sharding", "price_chain",
           tally=_returned_int),
    Target("cost.batch.price", "repro.design.search", "builds_request"),
    Target("cost.batch.price", "repro.design.search", "price_batch",
           tally=_returned_len),
    Target("design.proxy", "repro.design.search", "proxy_objectives"),
    Target("design.pareto", "repro.design.search", "pareto_indices"),
    Target("design.materialize", "repro.design.search", "ScenarioSweep.run"),
    Target("core.planstore.load", "repro.core.planstore", "PlanStore.load"),
    Target("core.planstore.flush", "repro.core.planstore", "PlanStore.flush"),
)

#: every span name, in first-declared order.
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(t.span for t in TARGETS))


def resolve(module: str, path: str):
    """``(owner, attribute, raw value)`` for a target, or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = inspect.getattr_static(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class Instrumentation:
    """Installs span wrappers on every :class:`Target` that exists."""

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.tracer = tracer
        self.targets = targets
        self.tallies: dict[str, int] = defaultdict(int)
        self.args: dict[str, set] = defaultdict(set)
        #: ``(owner, attribute, original)`` of each installed patch.
        self._patches: list[tuple] = []

    def reset(self) -> None:
        """Forget every span, tally and argument recorded so far."""
        self.tracer.reset()
        self.tallies.clear()
        for seen in self.args.values():
            seen.clear()

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self.tracer
        tallies, args_seen = self.tallies, self.args[target.span]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if target.distinct_args and args:
                try:
                    args_seen.add(args[0])
                except TypeError:  # unhashable argument
                    args_seen.add(repr(args[0]))
            index = tracer.open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if target.tally is not None:
                tallies[PAIRS_PRICED] += target.tally(result)
            return result
        return traced

    def install(self) -> list[str]:
        """Patch every resolvable target; returns the patched paths."""
        installed = []
        for target in self.targets:
            found = resolve(target.module, target.path)
            if found is None:
                continue
            owner, attr, raw = found
            if not inspect.isfunction(raw):
                continue
            setattr(owner, attr, self._wrap(raw, target))
            self._patches.append((owner, attr, raw))
            installed.append(f"{target.module}.{target.path}")
        return installed

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# Memo counters and resets
# ----------------------------------------------------------------------

#: memo resets a cold pass calls; a reset that no longer exists is skipped.
CLEARS: tuple[tuple[str, str], ...] = (
    ("repro.cost", "clear_cache"),
    ("repro.core", "clear_plan_cache"),
    ("repro.sweep.runner", "clear_trunk_memo"),
)


def clear_memos() -> None:
    """Reset every process-wide memo the program exposes a reset for."""
    for module, name in CLEARS:
        found = resolve(module, name)
        if found is not None:
            getattr(found[0], name)()


def memo_counters() -> dict[str, int]:
    """Plan-cache and ``evaluate`` memo counters (0 where one is gone)."""
    counts = {"core.plancache.lookups": 0, "core.plancache.misses": 0,
              "core.plancache.store_hits": 0, "cost.evaluate.lookups": 0,
              "cost.evaluate.misses": 0, "cost.evaluate.seeded": 0}
    found = resolve("repro.core.plancache", "plan_cache_stats")
    if found is not None:
        stats = getattr(found[0], "plan_cache_stats")()
        hits = getattr(stats, "hits", 0)
        misses = getattr(stats, "misses", 0)
        counts["core.plancache.lookups"] = hits + misses
        counts["core.plancache.misses"] = misses
        counts["core.plancache.store_hits"] = getattr(stats, "store_hits", 0)
    found = resolve("repro.cost.model", "evaluate")
    info = getattr(found[2], "cache_info", None) if found else None
    if info is not None:
        snapshot = info()
        hits = getattr(snapshot, "hits", 0)
        misses = getattr(snapshot, "misses", 0)
        counts["cost.evaluate.lookups"] = hits + misses
        counts["cost.evaluate.misses"] = misses
        counts["cost.evaluate.seeded"] = getattr(snapshot, "seeded", 0)
    return counts
