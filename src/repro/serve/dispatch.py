"""Distributed grid execution: shard a sweep across remote workers.

``dispatch_sweep`` splits a scenario grid round-robin across a set of
memo-server workers (each exposing the ``/sweep`` route), posts every
shard concurrently, and merges the returned rows through the existing
order-independent :meth:`~repro.sweep.runner.ScenarioSweep.merge` — the
same merge that already proves serial, parallel, streaming, and resumed
rows byte-identical, so a two-worker distributed run collapses to the
exact bytes of a serial one.

Design points:

* **Sharding is deterministic.**  Worker ``i`` of ``n`` gets
  ``scenarios[i::n]`` — a pure function of the grid order and the
  worker list, so a re-dispatch lands identical shards.
* **Workers return data, not exceptions.**  The ``/sweep`` route ships
  per-scenario failures back as records (the in-process chunk
  protocol's wire twin); the dispatch layer converts them to
  :class:`~repro.sweep.resilience.SweepFailure` and lets ``merge``
  decide strict-raise vs partial result.
* **Transport faults retry deterministically.**  Each shard post rides
  the client's :class:`~repro.sweep.resilience.RetryPolicy`; a worker
  that stays unreachable after its retries quarantines *its shard's*
  scenarios (``WorkerCrashError``'s wire analogue), never the grid.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import Sequence

from ..core.plancache import CacheStats
from ..sweep.resilience import (
    Clock,
    RetryPolicy,
    SweepFailure,
    SweepQuarantineError,
    error_class,
)
from ..sweep.runner import ScenarioSweep, SweepItem, SweepOutcome, SweepResult
from ..sweep.scenario import Scenario
from .client import RemoteStoreClient


def shard_round_robin(scenarios: Sequence[Scenario],
                      shards: int) -> list[list[Scenario]]:
    """Deterministic round-robin split; empty shards are dropped."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    return [list(scenarios[i::shards]) for i in range(shards)
            if scenarios[i::shards]]


def _post_shard(url: str, shard: list[Scenario],
                retry: RetryPolicy | None, clock: Clock | None,
                timeout_s: float) -> list[SweepItem]:
    """Price one shard on one worker; failures come back as items."""
    client = RemoteStoreClient(url, retry=retry, clock=clock,
                               timeout_s=timeout_s)
    try:
        response = client.sweep([s.to_dict() for s in shard])
    except Exception as error:
        # The worker stayed unreachable (or spoke garbage) through the
        # whole retry schedule: quarantine its shard, not the grid.
        attempts = retry.max_attempts if retry is not None \
            else RetryPolicy().max_attempts
        return [SweepFailure(key=scenario.key, error=error_class(error),
                             attempts=attempts, detail=str(error))
                for scenario in shard]
    items: list[SweepItem] = []
    for outcome in response.get("outcomes", []):
        items.append(SweepOutcome(
            key=outcome["key"],
            row=outcome["row"],
            plan_cache=CacheStats.from_dict(outcome.get("plan_cache")),
            layer_cache=CacheStats.from_dict(outcome.get("layer_cache"))))
    for failure in response.get("failures", []):
        items.append(SweepFailure(
            key=str(failure.get("key", "")),
            error=str(failure.get("error", "RuntimeError")),
            attempts=int(failure.get("attempts", 1)),
            detail=str(failure.get("detail", ""))))
    return items


def dispatch_sweep(scenarios: Sequence[Scenario],
                   worker_urls: Sequence[str],
                   strict: bool = True,
                   retry: RetryPolicy | None = None,
                   clock: Clock | None = None,
                   timeout_s: float = 600.0) -> SweepResult:
    """Run a grid across remote ``/sweep`` workers and merge the rows.

    Returns the same :class:`~repro.sweep.runner.SweepResult` a local
    run produces, with ``rows_json()`` byte-identical to serial
    execution of the same grid (``run_scenario`` is pure; the merge is
    order-independent).  ``workers`` in the result reports the number of
    shards actually dispatched — a grid smaller than the worker list
    contacts only the first ``len(grid)`` workers.

    In strict mode the first shard that comes back with failures decides
    the run: outstanding shard futures are cancelled and the quarantine
    raises immediately, so one dead worker never holds the call for the
    full ``timeout_s`` of every other shard.  (Shards already in flight
    finish in the background; their results are discarded.)
    """
    if not worker_urls:
        raise ValueError("dispatch needs at least one worker URL")
    urls = list(worker_urls)
    sweep = ScenarioSweep(list(scenarios), strict=strict, retry=retry,
                          clock=clock)
    shards = shard_round_robin(list(scenarios), len(urls))
    items: list[SweepItem] = []
    pool = ThreadPoolExecutor(max_workers=len(shards))
    try:
        futures = [pool.submit(_post_shard, urls[i], shard, retry, clock,
                               timeout_s)
                   for i, shard in enumerate(shards)]
        for future in as_completed(futures):
            shard_items = future.result()
            if strict:
                failures = [item for item in shard_items
                            if isinstance(item, SweepFailure)]
                if failures:
                    # merge() would insist on full grid coverage before
                    # raising, so the early exit raises the quarantine
                    # itself — same exception, without waiting on the
                    # shards we are abandoning.
                    raise SweepQuarantineError(failures)
            items.extend(shard_items)
    finally:
        # Never wait on abandoned shards: a worker blocked until
        # timeout_s keeps its thread, not this call.
        pool.shutdown(wait=False, cancel_futures=True)
    result = sweep.merge(items)
    result.workers = len(shards)
    result.parallel = len(shards) > 1
    return result
