"""Process-wide memoization of group plans.

Every layer of the search stack re-prices ``(group, n_chiplets, accel)``
candidates: :func:`~repro.core.sharding.plan_group` inside the throughput
matcher's inner loop, :func:`~repro.core.sharding.next_shard_step` while
probing shard counts, and :class:`~repro.core.dse.TrunkDSE` while
brute-forcing Table I.  Until PR 1 each of those kept (at best) a private
cache, so a design-space sweep re-computed identical plans once per caller.

:class:`PlanCache` is the single shared table.  Keys are
``(group, n, accel, mode)`` — all frozen dataclasses or strings, so
hashing is structural: two scenarios that price the same group on the
same accelerator hit the same entry even across independent
``ThroughputMatcher``/``TrunkDSE`` instances.  ``mode`` distinguishes the
"best over all shard modes" entry produced by ``plan_group`` (``"best"``)
from any future mode-pinned lookups.  The key holds nothing about the
package around the chiplets: a plan prices compute only, and the NoP is
priced after the plan is fixed, so mesh and torus scenarios — and a
heterogeneous package's untouched quadrants — share entries.  An
overridden quadrant keys by its own accelerator config.

Beside the plans, the cache holds one cost table per interned
``(group, accel)`` pair (:class:`~repro.core.sharding.GroupCosts`),
built on the first plan miss for that pair: every chiplet count's plan
reads it instead of pricing the group's chain again.

The cache also keeps hit/miss counters.  Sweep reports surface them next to
``Schedule.summary()`` metrics so cache-effectiveness regressions in the
hot path show up in benchmark artifacts, not just in wall time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..cost import AcceleratorConfig
    from ..workloads.graph import LayerGroup
    from .planstore import PlanStore
    from .sharding import GroupPlan

#: cache key mode for "best plan over all shard modes" (plan_group output)
MODE_BEST = "best"

_Costs = TypeVar("_Costs")


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of one cache's counters."""

    hits: int
    misses: int
    entries: int
    #: how many of the hits were first served from an attached
    #: :class:`~repro.core.planstore.PlanStore` (0 when none is attached).
    store_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        """Plain-dict form for reports (sorted, JSON-safe)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "store_hits": self.store_hits,
            "hit_rate": round(self.hit_rate, 4),
        }

    @classmethod
    def from_dict(cls, payload: object) -> "CacheStats":
        """Counters back from a :meth:`to_dict` payload (the journal).

        Keys other than the four counters are ignored (the derived
        ``hit_rate``; the pre-seeding counter older journals carry), and
        a non-dict payload reads as all zeros.
        """
        if not isinstance(payload, dict):
            payload = {}
        return cls(hits=int(payload.get("hits", 0)),
                   misses=int(payload.get("misses", 0)),
                   entries=int(payload.get("entries", 0)),
                   store_hits=int(payload.get("store_hits", 0)))

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        """Counter delta between two snapshots (entries from ``self``)."""
        return CacheStats(hits=self.hits - other.hits,
                          misses=self.misses - other.misses,
                          entries=self.entries,
                          store_hits=self.store_hits - other.store_hits)

    def __add__(self, other: "CacheStats") -> "CacheStats":
        """Order-independent merge of per-worker counters."""
        return CacheStats(hits=self.hits + other.hits,
                          misses=self.misses + other.misses,
                          entries=max(self.entries, other.entries),
                          store_hits=self.store_hits + other.store_hits)


class PlanCache:
    """Memoized ``(group, n, accel, mode) -> GroupPlan | None`` table.

    ``None`` results (no shard mode can use ``n`` chiplets) are cached too:
    infeasible probes are exactly what ``next_shard_step`` produces in bulk.
    A lock keeps the counters coherent if callers ever share a cache across
    threads; the computation itself runs outside the lock, so a rare
    duplicate compute is possible but results are identical by construction.

    A :class:`~repro.core.planstore.PlanStore` can be layered underneath
    with :meth:`attach_store`: in-memory misses then consult the store's
    loaded entries (by content hash) before computing, and every newly
    computed entry is staged for :meth:`flush_to_store`.  The disk layer is
    invisible to callers — stored plans deserialize bit-identical to
    computed ones.
    """

    def __init__(self) -> None:
        self._table: dict = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._store: Optional["PlanStore"] = None
        #: content-hash -> plan entries loaded from the attached store
        self._loaded: dict = {}
        #: entries computed since the last flush, keyed by content hash
        self._dirty: dict = {}
        self._store_hits = 0
        # Interning tables: every group/accel object is swapped for one
        # canonical instance before keying the table, so key-tuple
        # comparisons inside dict probes short-circuit on identity
        # instead of deep-comparing whole layer chains.  The by-id level
        # makes repeat lookups with the same object O(1).
        self._intern: dict = {}
        self._intern_by_id: dict = {}
        #: (canonical group, canonical accel) -> cost table
        self._costs: dict = {}

    def __len__(self) -> int:
        return len(self._table)

    #: cap on the by-id fast-path map: one entry per *object* probed, so
    #: unbounded sweeps would otherwise pin every scenario's dead groups.
    _INTERN_BY_ID_CAP = 8192

    def _canonical(self, obj):
        """One canonical instance per structurally-equal object.

        Caller must hold the lock.  The by-id fast path keeps a strong
        reference to the seen object, so its id cannot be recycled while
        the entry exists; the map is cleared when it hits its cap (the
        structural ``_intern`` table — bounded by distinct content —
        re-seeds it at one deep comparison per live object).
        """
        entry = self._intern_by_id.get(id(obj))
        if entry is not None and entry[0] is obj:
            return entry[1]
        canonical = self._intern.setdefault(obj, obj)
        if len(self._intern_by_id) >= self._INTERN_BY_ID_CAP:
            self._intern_by_id.clear()
        self._intern_by_id[id(obj)] = (obj, canonical)
        return canonical

    @property
    def store(self) -> Optional["PlanStore"]:
        """The attached plan store, if any."""
        return self._store

    def attach_store(self, store: "PlanStore") -> int:
        """Warm-start from ``store`` and stage future misses for flushing.

        Returns the number of entries loaded from disk.  Existing
        in-memory entries stay valid (and take precedence — they are the
        same plans by construction); only plans computed *after* attaching
        are staged for :meth:`flush_to_store`.
        """
        entries = store.load()
        with self._lock:
            self._store = store
            self._loaded = entries
            self._dirty = {}
        return len(entries)

    def detach_store(self) -> Optional["PlanStore"]:
        """Drop the store layer (unflushed entries are discarded)."""
        with self._lock:
            store, self._store = self._store, None
            self._loaded = {}
            self._dirty = {}
        return store

    def flush_to_store(self) -> int:
        """Persist entries computed since the last flush; returns count.

        A write that raises leaves its entries staged, so the next flush
        writes them.
        """
        with self._lock:
            store, dirty = self._store, self._dirty
            if store is None or not dirty:
                return 0
            self._dirty = {}
        try:
            store.flush(dirty)
        except BaseException:
            with self._lock:
                # Entries staged meanwhile hold the same plans.
                self._dirty = {**dirty, **self._dirty}
            raise
        with self._lock:
            self._loaded.update(dirty)
        return len(dirty)

    def get_or_compute(
            self,
            group: "LayerGroup",
            n: int,
            accel: "AcceleratorConfig",
            mode: str,
            compute: Callable[[], Optional["GroupPlan"]],
    ) -> Optional["GroupPlan"]:
        """Return the cached plan for the key, computing it on first use."""
        with self._lock:
            group = self._canonical(group)
            accel = self._canonical(accel)
            key = (group, n, accel, mode)
            if key in self._table:
                self._hits += 1
                return self._table[key]
            store = self._store
        # Hash outside the lock (pure CPU); only needed with a store.
        key_hash = (store.key_hash(group, n, accel, mode)
                    if store is not None else None)
        with self._lock:
            if key in self._table:  # raced with another thread
                self._hits += 1
                return self._table[key]
            if key_hash is not None and key_hash in self._loaded:
                plan = self._loaded[key_hash]
                self._table[key] = plan
                self._hits += 1
                self._store_hits += 1
                return plan
            self._misses += 1
        plan = compute()
        with self._lock:
            self._table[key] = plan
            if key_hash is not None:
                self._dirty[key_hash] = plan
        return plan

    def group_costs(
            self,
            group: "LayerGroup",
            accel: "AcceleratorConfig",
            build: Callable[["LayerGroup", "AcceleratorConfig"], _Costs],
    ) -> _Costs:
        """The ``(group, accel)`` cost table, built by ``build`` on first use.

        Keyed by the interned pair, so structurally-equal groups share
        one table; :meth:`clear` drops them with the plans.
        """
        with self._lock:
            key = (self._canonical(group), self._canonical(accel))
            costs = self._costs.get(key)
        if costs is None:
            costs = build(*key)
            with self._lock:
                costs = self._costs.setdefault(key, costs)
        return costs

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              entries=len(self._table),
                              store_hits=self._store_hits)

    def clear(self) -> None:
        """Drop all entries and cost tables and reset the counters.

        An attached store stays attached with its loaded entries intact
        (they mirror immutable disk state); staged-but-unflushed entries
        are dropped along with the table.
        """
        with self._lock:
            self._table.clear()
            self._dirty.clear()
            self._costs.clear()
            self._intern.clear()
            self._intern_by_id.clear()
            self._hits = 0
            self._misses = 0
            self._store_hits = 0


#: the process-wide cache shared by plan_group / next_shard_step /
#: ThroughputMatcher / TrunkDSE (one per worker process in a sweep).
_GLOBAL_CACHE = PlanCache()


def get_plan_cache() -> PlanCache:
    """The process-wide plan cache."""
    return _GLOBAL_CACHE


def plan_cache_stats() -> CacheStats:
    """Snapshot of the process-wide cache counters."""
    return _GLOBAL_CACHE.stats()


def clear_plan_cache() -> None:
    """Reset the process-wide cache (benchmarks / cold-start measurement)."""
    _GLOBAL_CACHE.clear()
