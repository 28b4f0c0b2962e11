"""Process-wide memoization of group plans.

Every layer of the search stack re-prices ``(group, n_chiplets, accel)``
candidates: :func:`~repro.core.sharding.plan_group` inside the throughput
matcher's inner loop, :func:`~repro.core.sharding.shard_step` while
probing shard counts, and :class:`~repro.core.dse.TrunkDSE` while
brute-forcing Table I.  Until PR 1 each of those kept (at best) a private
cache, so a design-space sweep re-computed identical plans once per caller.

:class:`PlanCache` is the single shared table.  It keeps one
:class:`PlanFamily` per ``(group, accel)`` pair — both frozen
dataclasses, so the pairing is structural: two scenarios that price the
same group on the same accelerator share one family even across
independent ``ThroughputMatcher``/``TrunkDSE`` instances — and a family
keys its plans by chiplet count.  Algorithm 1 resolves a group's family
once and then probes successive counts through it, so a probe costs one
small-int dict lookup.  Nothing about the package around the chiplets
picks a family: a plan prices compute only, and the NoP is priced after
the plan is fixed, so mesh and torus scenarios — and a heterogeneous
package's untouched quadrants — share plans.  An overridden quadrant
has a family of its own accelerator config.

Beside its plans, a family holds the pair's cost table
(:class:`~repro.core.sharding.GroupCosts`), built on its first plan
miss: every chiplet count's plan reads it instead of pricing the
group's chain again.

The cache also keeps hit/miss counters.  Sweep reports surface them next to
``Schedule.summary()`` metrics so cache-effectiveness regressions in the
hot path show up in benchmark artifacts, not just in wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..cost import AcceleratorConfig
    from ..workloads.graph import LayerGroup
    from .planstore import PlanStore
    from .sharding import GroupCosts, GroupPlan

#: the ``mode`` text of every store key: ``plan_group``'s best plan over
#: all shard modes
MODE_BEST = "best"

#: an empty plan slot (``None`` is a cached infeasible plan)
_MISSING = object()


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


@dataclass(eq=False)
class PlanFamily:
    """One ``(group, accel)`` pair's cost table and plans.

    Holds the group and accelerator the cache first saw for the pair:
    structurally equal objects share one family, so a plan (and a store
    key) is the same whichever of them asked.
    """

    group: "LayerGroup"
    accel: "AcceleratorConfig"
    #: the pair's :class:`~repro.core.sharding.GroupCosts`, built on the
    #: family's first miss
    costs: Optional["GroupCosts"] = None
    #: chiplet count -> plan, ``None`` where no shard mode fits; a dict,
    #: not a list, so a probe at a large count allocates no slots below it
    plans: dict[int, Optional["GroupPlan"]] = field(default_factory=dict)


class PlanCache:
    """Memoized ``(group, accel) -> n -> GroupPlan | None`` tables.

    One :class:`PlanFamily` per structurally distinct ``(group, accel)``
    pair, reached through :meth:`family`; :meth:`plan` serves a family's
    plan for one chiplet count.  ``None`` results (no shard mode can use
    ``n`` chiplets) are cached too: infeasible probes are exactly what
    ``shard_step`` produces in bulk.  No code path shares a cache
    between threads (a serial run and each pool worker process own
    one), so it takes no lock.

    A :class:`~repro.core.planstore.PlanStore` can be layered underneath
    with :meth:`attach_store`: in-memory misses then consult the store's
    loaded entries (by content hash) before computing, and every newly
    computed entry is staged for :meth:`flush_to_store`.  The disk layer is
    invisible to callers — stored plans deserialize bit-identical to
    computed ones.
    """

    def __init__(self) -> None:
        #: (group, accel) -> family, keyed structurally
        self._families: dict = {}
        #: (id(group), id(accel)) -> (group, accel, family): the fast path
        self._by_id: dict = {}
        self._hits = 0
        self._misses = 0
        #: plan slots filled, computed or served from the store
        self._entries = 0
        self._store: Optional["PlanStore"] = None
        #: content-hash -> plan entries loaded from the attached store
        self._loaded: dict = {}
        #: entries computed since the last flush, keyed by content hash
        self._dirty: dict = {}
        self._store_hits = 0

    #: cap on the by-id fast-path map: one entry per *object pair*
    #: probed, so unbounded sweeps would otherwise pin every scenario's
    #: dead groups.
    _BY_ID_CAP = 8192

    def family(self, group: "LayerGroup",
               accel: "AcceleratorConfig") -> PlanFamily:
        """The family of every group and accelerator equal to these.

        Repeat calls with the same objects take the by-id fast path,
        which keeps a strong reference to them, so their ids cannot be
        recycled while the entry exists; the map is cleared when it hits
        its cap (the structural table re-seeds it at one deep comparison
        per live pair).
        """
        entry = self._by_id.get((id(group), id(accel)))
        if entry is not None and entry[0] is group and entry[1] is accel:
            return entry[2]
        family = self._families.get((group, accel))
        if family is None:
            family = self._families[(group, accel)] = PlanFamily(group, accel)
        if len(self._by_id) >= self._BY_ID_CAP:
            self._by_id.clear()
        self._by_id[(id(group), id(accel))] = (group, accel, family)
        return family

    def plan(self, family: PlanFamily, n: int) -> Optional["GroupPlan"]:
        """The family's plan on ``n`` chiplets, computed on first use.

        Counts one hit or one miss.
        """
        plan = family.plans.get(n, _MISSING)
        if plan is not _MISSING:
            self._hits += 1
            return plan
        return self._fill(family, n)

    def _fill(self, family: PlanFamily, n: int) -> Optional["GroupPlan"]:
        """Serve an empty slot from the store, else compute and stage it."""
        # Imported here: the sharding module imports this one.
        from .sharding import GroupCosts, _compute_plan_group
        store = self._store
        key_hash = None
        if store is not None:
            key_hash = store.key_hash(family.group, n, family.accel,
                                      MODE_BEST)
            if key_hash in self._loaded:
                plan = family.plans[n] = self._loaded[key_hash]
                self._entries += 1
                self._hits += 1
                self._store_hits += 1
                return plan
        self._misses += 1
        if family.costs is None:
            family.costs = GroupCosts.price(family.group, family.accel)
        plan = family.plans[n] = _compute_plan_group(family.costs, n)
        self._entries += 1
        if key_hash is not None:
            self._dirty[key_hash] = plan
        return plan

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
        self._loaded = store.load()
        self._store = store
        self._dirty = {}
        return len(self._loaded)

    def detach_store(self) -> Optional["PlanStore"]:
        """Drop the store layer (unflushed entries are discarded)."""
        store, self._store = self._store, None
        self._loaded = {}
        self._dirty = {}
        return store

    def flush_to_store(self) -> int:
        """Persist entries computed since the last flush; returns count.

        A write that raises leaves its entries staged, so the next flush
        writes them.
        """
        dirty = self._dirty
        if self._store is None or not dirty:
            return 0
        self._store.flush(dirty)
        self._loaded.update(dirty)
        self._dirty = {}
        return len(dirty)

    def stats(self) -> CacheStats:
        return CacheStats(hits=self._hits, misses=self._misses,
                          entries=self._entries,
                          store_hits=self._store_hits)

    def clear(self) -> None:
        """Drop every family and reset the counters.

        An attached store stays attached with its loaded entries intact
        (they mirror immutable disk state); staged-but-unflushed entries
        are dropped along with the families.
        """
        self._families.clear()
        self._by_id.clear()
        self._dirty.clear()
        self._hits = 0
        self._misses = 0
        self._entries = 0
        self._store_hits = 0


#: the process-wide cache shared by plan_group / shard_step /
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
