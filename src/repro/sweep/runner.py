"""Parallel scenario-sweep engine with streaming delivery and a plan store.

:class:`ScenarioSweep` fans a grid of :class:`~repro.sweep.scenario.Scenario`
points across worker processes and merges the results deterministically:

* every scenario is priced by :func:`run_scenario`, a pure function of the
  scenario (the schedulers and cost model are deterministic), so the same
  grid produces identical rows whether it runs serially or on N workers;
* a serial run owns one :class:`RunTables` (a pool task prices its one
  scenario with tables of its own): it builds each distinct workload
  variant (and, on a DRAM axis, its per-frame DRAM bytes) and each
  distinct package once, runs Algorithm 1's allocation once per
  distinct allocation input (and places it once per package chiplet
  grid, from stage placements and priced NoP edges shared by every
  allocation that agrees on them), schedules and summarizes once per
  distinct hardware, so scenarios that differ only in their Het(k)
  budget share one schedule, and runs the trunk DSE once per distinct
  trunk input;
* workers return :class:`SweepOutcome` records that are merged by scenario
  key, then emitted in the grid's canonical order — completion order never
  leaks into the output, which is what makes the serial, parallel, and
  streaming paths byte-identical once serialized;
* :meth:`ScenarioSweep.run_iter` streams outcomes as they finish (serially,
  or over worker futures), so huge grids report rows as they land;
  :meth:`ScenarioSweep.run` is literally ``merge(run_iter())``, which
  is why the batch artifact and the collected stream are the same bytes;
* ``store_path`` layers a :class:`~repro.core.planstore.PlanStore` under
  the run's plan cache: a run warm-starts from disk and writes the plans
  it computed back, so plan pricing amortizes across processes *and*
  runs.  A serial run writes them as one shard when its stream ends,
  whether it finished, was closed or raised; a pool worker has no end of
  run, so each pool task writes its own.  A run loads the store once,
  before journal replay, and reports that load's skipped shards: merge
  reads nothing back;
* each worker process owns its own process-wide
  :class:`~repro.core.plancache.PlanCache` and layer-cost memos
  (``evaluate`` and ``evaluate_shape``, counted as one); per-scenario
  hit/miss deltas for both layers are summed into the sweep
  report, so the effectiveness of both memo layers is visible in artifacts
  (the *split* between hits and misses depends on which worker priced
  which scenario first and is intentionally excluded from the
  deterministic row payload).

Execution is fault-tolerant (see :mod:`repro.sweep.resilience`): a
failed attempt comes back as data and a transient one is retried at once,
up to ``MAX_ATTEMPTS`` tries (a serial attempt does no I/O, so a serial
run's store write error is raised once, never retried); a dead worker
(``BrokenProcessPool``) costs only the in-flight scenarios, each settled
as a ``WorkerCrashError``, so a scenario that kills its worker on every
attempt quarantines alone; a ``journal`` directory replays the keys it
already holds instead of re-pricing them and checkpoints every new
outcome; and ``strict=False`` merges a partially failed grid into a
partial result carrying a deterministic ``failures`` manifest.
"""

from __future__ import annotations

import functools
import json
import operator
import pathlib
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Union

from ..core.dse import TrunkDSE
from ..core.placement import StagePlacements
from ..core.plancache import CacheStats, get_plan_cache, plan_cache_stats
from ..core.planstore import PlanStore
from ..core.schedule import EdgeTables
from ..core.throughput import AllocationTable
from ..cost.model import evaluate, evaluate_shape
from ..workloads.graph import PerceptionWorkload
from ..workloads.pipeline import STAGE_TR
from .resilience import (
    MAX_ATTEMPTS,
    RETRYABLE,
    SweepFailure,
    SweepQuarantineError,
    WorkerCrashError,
    error_class,
)
from .scenario import DramBytesTable, PackageTable, Scenario, WorkloadTable

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from .journal import SweepJournal

#: summary metrics copied from Schedule.summary() into each sweep row.
_SUMMARY_FIELDS = ("e2e_ms", "pipe_ms", "energy_j", "edp_j_ms",
                   "utilization", "nop_latency_ms", "nop_energy_j",
                   "used_chiplets")

#: extra summary metrics present only when a scenario sets ``dram_gbps``
#: (appended to the row then, so default-axis rows are byte-stable).
_DRAM_FIELDS = ("compute_pipe_ms", "dram_ms", "dram_bw_util",
                "dram_energy_j", "dram_throttled")

#: extra hop metrics present only when a scenario sets ``topology``
#: (likewise gated so default-axis rows stay byte-stable); an explicit
#: ``topology=mesh`` row carries them too, which is how mesh-vs-torus
#: comparisons read both sides from one sweep artifact.
_TOPOLOGY_FIELDS = ("nop_avg_hops", "nop_max_hops")

# Rows of scenarios that set ``hetero`` additionally carry
# ``package_composition`` (the canonical per-quadrant hardware string)
# and ``stage_utilization`` (per-stage useful-MAC utilization at each
# quadrant's own clock); both are gated on the axis so default rows stay
# byte-stable, and a no-op override (e.g. ``trunk:os@2``) carries them
# too — that is how hetero-vs-homogeneous comparisons read both sides
# from one artifact.


def layer_cost_cache_stats() -> CacheStats:
    """This process's layer-cost lru_cache counters, summed over both
    memos: ``evaluate`` (named layers) and ``evaluate_shape`` (row bands).

    Shaped as a :class:`CacheStats` so sweep reports can surface both memo
    layers (group plans and layer costs) side by side.  ``entries`` is
    summed as well, unlike ``CacheStats.__add__``'s per-worker maximum.
    """
    infos = [evaluate.cache_info(), evaluate_shape.cache_info()]
    return CacheStats(hits=sum(i.hits for i in infos),
                      misses=sum(i.misses for i in infos),
                      entries=sum(i.currsize for i in infos))


@dataclass(frozen=True)
class _ScheduledRow:
    """The part of a row one scenario's hardware prices."""

    #: row fields from ``base_ms`` through ``shard_steps``, in row order
    fields: dict
    #: what :func:`_trunk_columns` needs besides the scenario
    workload: PerceptionWorkload
    base_latency_s: float
    trunk_chiplets: int


@dataclass
class RunTables:
    """What one serial run or design search builds once and shares.

    Each table is keyed by exactly what its entries read, so sharing
    changes how often work runs, never a row.  Each is owned by its run
    and dies with it; no process-wide memo holds them, so every run
    starts cold.  A lone :func:`run_scenario` call, and so a pool task,
    gets tables of its own.
    """

    #: built workloads by config (:meth:`Scenario.build`)
    workloads: WorkloadTable = field(default_factory=dict)
    #: built packages by :meth:`Scenario.package_key`
    #: (:meth:`Scenario.build`)
    packages: PackageTable = field(default_factory=dict)
    #: per-frame DRAM bytes by workload config (:meth:`Scenario.build`)
    dram_bytes: DramBytesTable = field(default_factory=dict)
    #: Algorithm 1 allocations (:meth:`ThroughputMatcher.run`), each
    #: with its assignments by package chiplet grid
    allocations: AllocationTable = field(default_factory=dict)
    #: stage placements by what placing one stage reads (:func:`place`),
    #: shared by every allocation that places a stage alike
    placements: StagePlacements = field(default_factory=dict)
    #: priced NoP edges by chiplet grid and link, each keyed by what the
    #: edge reads (:meth:`Schedule._edge`)
    edges: EdgeTables = field(default_factory=dict)
    #: the schedule-derived part of rows, by scenario sans Het(k) budget
    schedules: dict[Scenario, _ScheduledRow] = field(default_factory=dict)
    #: trunk-DSE columns by what the DSE reads (:func:`_trunk_columns`),
    #: so a grid varying NoP bandwidth runs the enumeration once
    trunks: dict[tuple, dict] = field(default_factory=dict)


def run_scenario(scenario: Scenario,
                 tables: RunTables | None = None) -> dict:
    """Price one scenario: scheduler summary plus optional trunk DSE.

    Pure function of the scenario — this is the unit of work shipped to
    sweep workers, and the determinism contract of the whole engine.
    All hardware comes from :meth:`Scenario.build`, the one
    package-construction path experiments and the CLI share;
    ``tables`` is the caller's :class:`RunTables` (``None`` prices this
    scenario with tables of its own).
    """
    if tables is None:
        tables = RunTables()
    # The Het(k) budget is the one axis neither Scenario.build() nor the
    # matcher reads: it only adds the trunk-DSE columns below.  So
    # scenarios that differ in it alone share their schedule.
    hardware = scenario
    if scenario.het_ws_budget is not None:
        hardware = replace(scenario, het_ws_budget=None)
    scheduled = tables.schedules.get(hardware)
    if scheduled is None:
        scheduled = tables.schedules[hardware] = _schedule_row(scenario,
                                                               tables)
    row = {"key": scenario.key, **scenario.to_dict(), **scheduled.fields}
    if scenario.hetero is not None:
        # The row's one mutable value: no two rows may share it.
        row["stage_utilization"] = dict(row["stage_utilization"])

    if scenario.het_ws_budget is not None:
        # Table I's Het(k) flow: the pipe constraint is the scenario's
        # tolerance over ITS base latency, and the chiplet budget is the
        # package's actual trunk-quadrant capacity.  The constraint is
        # the *compute* base latency — heterogeneous trunk mapping cannot
        # relieve a DRAM wall.
        l_cstr = scenario.tolerance * scheduled.base_latency_s
        row.update(_trunk_columns(scenario, scheduled.workload,
                                  scenario.het_ws_budget,
                                  l_cstr, scheduled.trunk_chiplets,
                                  tables.trunks))
    return row


def _schedule_row(scenario: Scenario, tables: RunTables) -> _ScheduledRow:
    """Build, schedule and summarize one scenario's hardware."""
    built = scenario.build(tables.workloads, tables.packages,
                           tables.dram_bytes)
    schedule = built.schedule(tables.allocations, tables.placements,
                              tables.edges)
    summary = schedule.summary()
    fields = {"base_ms": schedule.base_latency_s * 1e3}
    for name in _SUMMARY_FIELDS:
        fields[name] = summary[name]
    if scenario.dram_gbps is not None:
        for name in _DRAM_FIELDS:
            fields[name] = summary[name]
    if scenario.topology is not None:
        for name in _TOPOLOGY_FIELDS:
            fields[name] = getattr(schedule, name)
    if scenario.hetero is not None:
        from ..arch import package_composition
        fields["package_composition"] = package_composition(built.package)
        fields["stage_utilization"] = schedule.stage_utilization()
    fields["shard_steps"] = sum(t.action == "shard" for t in schedule.trace)
    trunk_chiplets = sum(built.package.quadrant_capacity(q)
                         for q in schedule.stage_quadrants[STAGE_TR])
    return _ScheduledRow(fields=fields, workload=built.workload,
                         base_latency_s=schedule.base_latency_s,
                         trunk_chiplets=trunk_chiplets)


def check_ws_budget(ws_budget: int, chiplets: int) -> None:
    """Reject a Het(k) budget larger than the trunk quadrant's capacity.

    ``chiplets`` is the capacity of the trunk stage's quadrants.  Shared
    by the trunk DSE and the design search, which checks every budget
    while ranking.
    """
    if ws_budget > chiplets:
        raise ValueError(
            f"het_ws_budget {ws_budget} exceeds the trunk quadrant "
            f"capacity ({chiplets} chiplets for this scenario)")


def _trunk_columns(scenario: Scenario, workload, ws_budget: int,
                   l_cstr_s: float, chiplets: int,
                   trunks: dict[tuple, dict]) -> dict:
    check_ws_budget(ws_budget, chiplets)
    # The key is the workload variant, WS budget, constraint, quadrant
    # budget and trunk hardware.  Hardware overrides are part of it: two
    # scenarios that differ only in frequency or tile must not share a
    # DSE result.
    # (The scenario *dataflow* axis is not: the trunk DSE explores its
    # own OS/WS mixes regardless of the package-wide style.)  The trunk
    # quadrant's hardware is the *effective* one — a per-quadrant
    # ``trunk`` override wins over the scenario-wide axes.  The NoP
    # topology is not: the DSE prices compute only.
    trunk_ghz, trunk_tile = scenario.trunk_hw()
    key = (scenario.workload, ws_budget, l_cstr_s, chiplets,
           trunk_ghz, trunk_tile)
    if key not in trunks:
        os_accel, ws_accel = scenario.trunk_accels()
        best = TrunkDSE(stage=workload.stage(STAGE_TR),
                        os_accel=os_accel,
                        ws_accel=ws_accel,
                        l_cstr_s=l_cstr_s,
                        chiplets=chiplets).search(ws_budget)
        trunks[key] = {
            "trunk_label": best.label,
            "trunk_pipe_ms": best.pipe_ms,
            "trunk_energy_j": best.energy_j,
            "trunk_edp_j_ms": best.edp_j_ms,
            "trunk_feasible": best.feasible,
        }
    return dict(trunks[key])


@dataclass(frozen=True)
class SweepOutcome:
    """One completed scenario: its row plus this run's memo deltas."""

    key: str
    row: dict
    #: plan-cache counter delta attributable to this scenario
    plan_cache: CacheStats
    #: layer-cost memo counter delta attributable to this scenario
    layer_cache: CacheStats


#: what :meth:`ScenarioSweep.run_iter` yields: a priced scenario, or the
#: quarantine record of one that failed deterministically on its first
#: attempt or failed transiently on every attempt.
SweepItem = Union[SweepOutcome, SweepFailure]


def _attach_store(store_path) -> bool:
    """Attach a plan-store directory to this process's plan cache.

    Attaching loads the store; the attached store's ``skipped_files``
    then lists the shards that load ignored.  Idempotent for the same
    directory (no second load); refuses to silently serve (and flush) a
    different store than the one requested.
    """
    cache = get_plan_cache()
    if store_path is None:
        return False
    attached = cache.store
    if attached is not None:
        if pathlib.Path(store_path) == attached.path:
            return False
        raise RuntimeError(
            f"plan cache is already attached to store {attached.path}; "
            f"cannot attach {store_path} (detach the first store or run "
            f"the sweeps sequentially)")
    cache.attach_store(PlanStore(store_path))
    return True


def _run_one(scenario: Scenario, tables: RunTables | None = None,
             ) -> SweepOutcome | Exception:
    """One attempt at one scenario: its outcome with both memo layers'
    deltas, or the exception the attempt raised.

    The serial loop's step and the body of the pool's task.  A failure
    comes back as data, so it costs neither the worker process nor the
    rest of the run: :meth:`ScenarioSweep._settle` picks retry or
    quarantine.  It prices and does no I/O: the plans it computes stay
    staged in the plan cache until the run, or the pool task, writes
    them to an attached store.
    """
    try:
        plan_before = plan_cache_stats()
        layer_before = layer_cost_cache_stats()
        row = run_scenario(scenario, tables)
        # The counter delta is this scenario's; entries reflect the
        # worker's table after the run (CacheStats.__sub__ keeps the
        # minuend's).
        return SweepOutcome(
            key=scenario.key,
            row=row,
            plan_cache=plan_cache_stats() - plan_before,
            layer_cache=layer_cost_cache_stats() - layer_before,
        )
    except Exception as error:
        return error


def _pool_task(scenario: Scenario) -> SweepOutcome | Exception:
    """The pool's task: one attempt, then a write of the plans it staged.

    A worker has no end of run, so each task that priced writes its own
    shard: an atomic write that workers sharing the directory tolerate
    without locks, so even a crashed or cancelled pooled sweep leaves
    its completed work warm on disk.  A write error comes back as data,
    like any failed attempt, and its plans stay staged for the retry.
    """
    result = _run_one(scenario)
    if isinstance(result, SweepOutcome):
        try:
            get_plan_cache().flush_to_store()
        except Exception as error:
            return error
    return result


@dataclass
class SweepResult:
    """Merged output of one sweep run."""

    scenarios: list[Scenario]
    #: one row per *priced* scenario, in the grid's canonical order
    #: (every scenario, unless a non-strict merge quarantined some).
    rows: list[dict]
    #: summed per-scenario plan-cache deltas across all workers.
    cache_stats: CacheStats
    #: summed per-scenario layer-cost memo deltas likewise.
    layer_cache_stats: CacheStats
    parallel: bool
    workers: int
    #: quarantined scenarios (grid order); empty for a complete result.
    failures: list[SweepFailure] = field(default_factory=list)
    #: plan-store shard files the run's one store load ignored as
    #: corrupt/stale, as ``{"file", "reason"}`` records (empty without a
    #: store).
    store_skipped: list[dict] = field(default_factory=list)
    #: journal records ignored as corrupt/stale on resume, as
    #: ``{"file", "reason"}`` records (empty without a journal).
    journal_skipped: list[dict] = field(default_factory=list)
    _row_index: dict | None = field(default=None, init=False, repr=False,
                                    compare=False)

    @property
    def complete(self) -> bool:
        """Whether every scenario in the grid produced a row."""
        return not self.failures

    def row(self, key: str) -> dict:
        """The row for one scenario key (dict-indexed, built once)."""
        if self._row_index is None:
            self._row_index = {r["key"]: r for r in self.rows}
        return self._row_index[key]

    def rows_json(self) -> str:
        """Canonical serialization of the deterministic payload.

        Serial, parallel, streaming, and crash-resumed runs of the same
        grid produce byte-identical output here (cache statistics are
        excluded on purpose: the hit/miss split depends on work
        placement, the rows do not — and retry attempt counts are
        excluded for the same reason: they report infrastructure luck,
        not scenario economics).
        """
        return json.dumps({"rows": self.rows}, sort_keys=True, indent=2)

    def failures_manifest(self) -> list[dict]:
        """Deterministic quarantine manifest: key, error class, attempts.

        Grid-ordered and free of messages/paths/addresses, so two runs
        that fail the same way produce the same manifest bytes.
        """
        return [f.to_manifest() for f in self.failures]

    def summary(self) -> dict:
        """Headline sweep metrics, Schedule.summary()-style.

        The ``failures``, ``store_skipped`` and ``journal_skipped`` keys
        appear only when non-empty, so summaries of healthy full sweeps
        stay byte-stable against pre-resilience artifacts.
        """
        report = {
            "scenarios": len(self.rows),
            "parallel": self.parallel,
            "workers": self.workers,
            "plan_cache": self.cache_stats.to_dict(),
            "layer_cost_cache": self.layer_cache_stats.to_dict(),
        }
        if self.failures:
            report["failures"] = self.failures_manifest()
        if self.store_skipped:
            report["store_skipped"] = self.store_skipped
        if self.journal_skipped:
            report["journal_skipped"] = self.journal_skipped
        return report

    def to_dict(self) -> dict:
        return {"summary": self.summary(), "rows": self.rows}


@dataclass
class ScenarioSweep:
    """Run a scenario grid, serially or across worker processes."""

    scenarios: list[Scenario]
    workers: int = 1
    #: optional shared plan-store directory (:class:`PlanStore`): the
    #: run warm-starts from it and writes newly computed plans back.
    store_path: str | pathlib.Path | None = None
    #: strict merges raise on any quarantined scenario; ``strict=False``
    #: returns a partial result carrying the failures manifest instead.
    strict: bool = True
    #: optional journal directory: keys it already holds are replayed
    #: instead of re-priced, and every new outcome checkpoints there.
    journal: str | pathlib.Path | None = None

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("sweep needs at least one scenario")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if isinstance(self.store_path, str) \
                and self.store_path.startswith(("http://", "https://")):
            raise ValueError(
                f"plan stores are directories; got the URL "
                f"{self.store_path!r} (the networked memo server was "
                f"removed)")
        keys = [s.key for s in self.scenarios]
        if len(set(keys)) != len(keys):
            raise ValueError("scenario keys must be unique")
        #: what the last run_iter's store and journal loads skipped.
        self._store_skipped: list[dict] = []
        self._journal_skipped: list[dict] = []

    # ------------------------------------------------------------------

    def run_iter(self) -> Iterator[SweepItem]:
        """Yield one :class:`SweepOutcome` per scenario as each finishes
        (or a :class:`SweepFailure` for a scenario that failed
        deterministically or exhausted its retries).

        Serial runs yield in grid order; parallel runs yield in completion
        order over worker futures.  Feed the collected items to
        :meth:`merge` for the canonical result — byte-identical to
        :meth:`run`, which is implemented exactly that way.

        With a ``store_path``, a serial run writes every plan it priced
        as one shard when the stream ends, whether it finished, was
        closed or raised; a write error is raised then, once.
        """
        # The run's one store load, before journal replay so a replayed
        # run reports its skips too: a serial run attaches the store, and
        # a pooled run's parent loads it because workers cannot report
        # what their own loads skip.  Merge reads nothing back.
        attached, flush, self._store_skipped = False, False, []
        if self.store_path is not None:
            if self.workers == 1:
                attached = _attach_store(self.store_path)
                flush = True
                store = get_plan_cache().store
            else:
                store = PlanStore(self.store_path)
                store.load()
            self._store_skipped = store.skipped_manifest()
        try:
            journal = None
            remaining = self.scenarios
            if self.journal is not None:
                from .journal import SweepJournal
                journal = SweepJournal(self.journal)
                replayed = journal.load()
                self._journal_skipped = [
                    {"file": record.name, "reason": reason}
                    for record, reason in journal.skipped_files]
                remaining = []
                for scenario in self.scenarios:
                    done = replayed.get(scenario.key)
                    if done is not None:
                        yield done
                    else:
                        remaining.append(scenario)
            if not remaining:
                return
            if self.workers == 1:
                yield from self._serial_iter(remaining, journal)
            else:
                yield from self._parallel_iter(remaining, journal)
        finally:
            # Detach only a store this run attached, after the write.
            cache = get_plan_cache()
            try:
                if flush:
                    cache.flush_to_store()
            finally:
                if attached:
                    cache.detach_store()

    # -- serial path ---------------------------------------------------

    def _serial_iter(self, scenarios: list[Scenario],
                     journal: SweepJournal | None) -> Iterator[SweepItem]:
        tables = RunTables()  # shared by the whole run
        for scenario in scenarios:
            attempt = 0
            item: SweepItem | None = None
            while item is None:
                attempt += 1
                item = self._settle(scenario, attempt,
                                    _run_one(scenario, tables=tables))
            self._checkpoint(journal, item)
            yield item

    def _settle(self, scenario: Scenario, attempt: int,
                result: SweepOutcome | Exception) -> SweepItem | None:
        """What one attempt's result makes of its scenario: the outcome,
        ``None`` to retry at ``attempt + 1``, or the quarantine record."""
        if isinstance(result, SweepOutcome):
            return result
        if isinstance(result, RETRYABLE) and attempt < MAX_ATTEMPTS:
            return None
        return SweepFailure(key=scenario.key, error=error_class(result),
                            attempts=attempt, detail=str(result))

    # -- parallel path -------------------------------------------------

    def _spawn_pool(self) -> ProcessPoolExecutor:
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_attach_store,
            initargs=(self.store_path,))

    def _parallel_iter(self, scenarios: list[Scenario],
                       journal: SweepJournal | None) -> Iterator[SweepItem]:
        # Only the pool path loads the pool: a serial run never pays for
        # importing concurrent.futures and multiprocessing.
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        lost = WorkerCrashError("worker process died")
        pending: deque = deque((s, 1) for s in scenarios)
        pool = self._spawn_pool()
        inflight: dict = {}
        try:
            while pending or inflight:
                settled: list[tuple] = []
                respawn = False
                while pending and not respawn:
                    scenario, attempt = task = pending.popleft()
                    try:
                        inflight[pool.submit(_pool_task, scenario)] = task
                    except BrokenProcessPool:
                        pending.appendleft(task)
                        respawn = True
                if inflight and not respawn:
                    done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                    for future in done:
                        task = inflight.pop(future)
                        try:
                            settled.append((task, future.result()))
                        except (BrokenProcessPool, OSError):
                            # The worker died mid-scenario (segfault or
                            # OOM kill): nothing came back.
                            respawn = True
                            settled.append((task, lost))
                if respawn:
                    settled += [(task, lost) for task in inflight.values()]
                    inflight.clear()
                    _kill_pool(pool)
                    pool = self._spawn_pool()
                for (scenario, attempt), result in settled:
                    item = self._settle(scenario, attempt, result)
                    if item is None:
                        pending.append((scenario, attempt + 1))
                    else:
                        self._checkpoint(journal, item)
                        yield item
        finally:
            # A consumer that abandons the stream (or a fatal error) must
            # not block on the rest of the grid: drop every not-yet-started
            # task before waiting out the in-flight ones.
            pool.shutdown(wait=True, cancel_futures=True)

    # -- checkpointing -------------------------------------------------

    def _checkpoint(self, journal: SweepJournal | None,
                    item: SweepItem) -> None:
        if journal is None:
            return
        if isinstance(item, SweepFailure):
            journal.record_failure(item)
        else:
            journal.record(item)

    # ------------------------------------------------------------------

    def merge(self, outcomes: Iterable[SweepItem]) -> SweepResult:
        """Merge items (any order) into the canonical-order result.

        Duplicate outcomes for one key (possible with retries, resume,
        or overlapping journals) are tolerated only when their rows are
        byte-identical — anything else means two runs disagreed about a
        pure function, which must never be papered over.  A key that
        failed in one source but priced in another counts as priced.
        With quarantined keys left over, ``strict`` merges raise
        :class:`SweepQuarantineError`; non-strict merges return the
        partial result with its ``failures`` manifest.
        """
        failures: list[SweepFailure] = []
        by_key: dict[str, SweepOutcome] = {}
        for item in outcomes:
            if isinstance(item, SweepFailure):
                failures.append(item)
                continue
            seen = by_key.get(item.key)
            if seen is None:
                by_key[item.key] = item
            elif (json.dumps(item.row, sort_keys=True)
                    != json.dumps(seen.row, sort_keys=True)):
                raise RuntimeError(
                    f"duplicate outcomes for scenario {item.key} have "
                    f"different rows; retries and resume must re-price "
                    f"identically — refusing to merge")
        failed: dict[str, SweepFailure] = {}
        for failure in failures:
            if failure.key not in by_key and failure.key not in failed:
                failed[failure.key] = failure
        missing = [s.key for s in self.scenarios
                   if s.key not in by_key and s.key not in failed]
        if missing:
            raise RuntimeError(f"scenarios produced no result: {missing}")
        quarantined = [failed[s.key] for s in self.scenarios
                       if s.key in failed]
        if quarantined and self.strict:
            raise SweepQuarantineError(quarantined)
        priced = [by_key[s.key] for s in self.scenarios if s.key in by_key]
        # CacheStats.__add__ sums the counters and keeps the largest
        # per-process table size (tables are per-worker).  The explicit
        # zero seed keeps an all-quarantined non-strict merge total.
        zero = CacheStats(hits=0, misses=0, entries=0, store_hits=0)
        plan_stats = functools.reduce(
            operator.add, (o.plan_cache for o in priced), zero)
        layer_stats = functools.reduce(
            operator.add, (o.layer_cache for o in priced), zero)
        return SweepResult(
            scenarios=list(self.scenarios),
            rows=[o.row for o in priced],
            cache_stats=plan_stats,
            layer_cache_stats=layer_stats,
            parallel=self.workers > 1,
            workers=self.workers,
            failures=quarantined,
            store_skipped=self._store_skipped,
            journal_skipped=self._journal_skipped,
        )

    def run(self) -> SweepResult:
        """Execute the grid and merge results in canonical order."""
        return self.merge(self.run_iter())


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a broken pool without waiting on its work.

    Its surviving workers may still be pricing tasks the pool has lost,
    so terminate the worker processes first, then reap them.
    """
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        proc.terminate()
    pool.shutdown(wait=True, cancel_futures=True)
