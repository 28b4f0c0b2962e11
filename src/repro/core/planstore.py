"""Disk-backed, versioned plan store shared across sweep processes.

The process-wide :class:`~repro.core.plancache.PlanCache` makes a single
process fast; this module carries its plans across processes and runs.  A
:class:`PlanStore` is a directory of immutable shard files that any number
of concurrent sweep workers (or successive runs) can read and extend
without locks:

* **Keys are content hashes.**  ``plan_key_hash`` canonicalizes the frozen
  ``(group, n_chiplets, accel, mode)`` lookup tuple — via the same
  ``group_to_dict``/``accel_to_dict`` views ``repro.io.serialize`` uses for
  artifacts — into sorted JSON and takes its SHA-256.  Two processes that
  price the same group on the same accelerator produce the same key, no
  matter how the objects were constructed.  The key holds no NoP
  topology or package composition: a plan prices compute only, so every
  topology shares one entry.  Entries that older stores wrote under a
  topology or hetero context are never looked up; they stay harmless
  orphans.
* **Entries are exact.**  Values are ``plan_to_record`` dumps of the
  computed :class:`~repro.core.sharding.GroupPlan` (or ``null`` for
  infeasible probes, which the cache memoizes too).  JSON floats round-trip
  via ``repr``, so a store-served plan is bit-identical to a freshly
  computed one and warm rows serialize byte-for-byte like cold rows.
* **Writes are atomic and content-addressed.**  A flush serializes its
  entries to one shard, writes it to a temp file in the store directory,
  and ``os.replace``-renames it to ``plans-<digest>.json``.  Readers never
  observe a partial shard; two workers flushing identical content collide
  on the same name with the same bytes, which is harmless.  A flush
  skips the write only when that name already holds its exact bytes, so
  a damaged shard is rewritten by the next run that prices its plans.
* **A schema version stamps every shard.**  Bump :data:`SCHEMA_VERSION`
  whenever the cost model, the ``GroupPlan`` fields, or the key payload
  change meaning; ``load`` then ignores stale shards (and corrupted or
  truncated files), so an outdated store degrades to a cold start instead
  of serving wrong plans.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import uuid
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..cost import AcceleratorConfig
    from ..workloads.graph import LayerGroup
    from .sharding import GroupPlan

#: Store layout / cost-model revision.  Shards stamped with a different
#: version are ignored on load (stale stores invalidate themselves).
SCHEMA_VERSION = 1

#: shard filename pattern: plans-<content digest>.json
_SHARD_PREFIX = "plans-"
_SHARD_SUFFIX = ".json"


def _group_fragment(group: "LayerGroup") -> str:
    """Canonical JSON fragment of one group (sorted keys, compact)."""
    from ..io.serialize import group_to_dict
    return json.dumps(group_to_dict(group), sort_keys=True,
                      separators=(",", ":"))


def _accel_fragment(accel: "AcceleratorConfig") -> str:
    """Canonical JSON fragment of one accelerator config."""
    from ..io.serialize import accel_to_dict
    return json.dumps(accel_to_dict(accel), sort_keys=True,
                      separators=(",", ":"))


def _key_prefix(group_json: str, accel_json: str, mode: str):
    """SHA-256 state of a key's text up to its trailing chiplet count.

    The key payload is ``json.dumps({"accel": ..., "group": ...,
    "mode": ..., "n": ...}, sort_keys=True, separators=(",", ":"))``,
    composed here from pre-serialized fragments (the field names are
    already in sorted order).  Keys of one (group, accel, mode) differ
    only in the ``<n>}`` that :func:`_finish_key` appends, so a caller
    hashes this prefix once and copies it per key; the returned state is
    only ever copied, never updated.
    """
    return hashlib.sha256(
        f'{{"accel":{accel_json},"group":{group_json},'
        f'"mode":{json.dumps(mode)},"n":'.encode("utf-8"))


def _finish_key(prefix, n: int) -> str:
    """The key hash for ``n`` chiplets from its :func:`_key_prefix`."""
    state = prefix.copy()
    state.update(b"%d}" % n)
    return state.hexdigest()


def plan_key_hash(group: "LayerGroup", n: int, accel: "AcceleratorConfig",
                  mode: str) -> str:
    """SHA-256 content hash of one plan-cache key.

    Canonical form: sorted-key JSON over the serialized group, the chiplet
    count, the serialized accelerator, and the mode string — via the same
    ``group_to_dict``/``accel_to_dict`` views artifacts use.  Layer
    ``tags`` are excluded (they are excluded from ``Layer`` equality too);
    everything cost-relevant — including ``weights_are_activations`` — is
    part of the serialized views.  The package's NoP topology and the
    other quadrants' hardware are not: a plan prices compute only.
    """
    # Imports inside the serialize helpers are lazy: repro.io.serialize
    # imports from repro.core, so a module-level import would cycle
    # during package initialization.
    return _finish_key(_key_prefix(_group_fragment(group),
                                   _accel_fragment(accel), mode), n)


class PlanStore:
    """A directory of atomic, content-addressed plan shards.

    Safe for concurrent use by independent processes: loads only see
    complete shards, a flush replaces only a damaged shard of its own
    name, never foreign data, and no file is ever modified in place.
    One instance additionally keeps one canonical JSON fragment per
    group/accel object and one hashed key prefix per
    ``(group, accel, mode)``, so each key hashes only its chiplet count.
    """

    def __init__(self, path: str | pathlib.Path,
                 schema_version: int = SCHEMA_VERSION) -> None:
        self.path = pathlib.Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.schema_version = schema_version
        #: files ignored by the last load(): list of (path, reason) pairs,
        #: reason in {"corrupt", "schema"}.
        self.skipped_files: list[tuple[pathlib.Path, str]] = []
        # A group/accel serializes once per store, not once per key that
        # references it, and a (group, accel, mode) hashes its prefix once.
        self._group_fragments: dict = {}
        self._accel_fragments: dict = {}
        self._prefixes: dict = {}

    def key_hash(self, group: "LayerGroup", n: int,
                 accel: "AcceleratorConfig", mode: str) -> str:
        """:func:`plan_key_hash`, from this store's hashed key prefixes."""
        prefix = self._prefixes.get((group, accel, mode))
        if prefix is None:
            group_json = self._group_fragments.get(group)
            if group_json is None:
                group_json = _group_fragment(group)
                self._group_fragments[group] = group_json
            accel_json = self._accel_fragments.get(accel)
            if accel_json is None:
                accel_json = _accel_fragment(accel)
                self._accel_fragments[accel] = accel_json
            prefix = _key_prefix(group_json, accel_json, mode)
            self._prefixes[(group, accel, mode)] = prefix
        return _finish_key(prefix, n)

    def shard_files(self) -> list[pathlib.Path]:
        """All shard files currently in the store, sorted by name."""
        return sorted(self.path.glob(f"{_SHARD_PREFIX}*{_SHARD_SUFFIX}"))

    def skipped_manifest(self) -> list[dict]:
        """:attr:`skipped_files` as sorted, JSON-ready records.

        Shaped for sweep summaries and CLI reports — file *names* only
        (the store directory is the caller's context; embedding absolute
        paths would make the manifest machine-dependent).
        """
        return [{"file": shard.name, "reason": reason}
                for shard, reason in sorted(
                    self.skipped_files, key=lambda pair: pair[0].name)]

    # ------------------------------------------------------------------

    def load(self) -> dict[str, Optional["GroupPlan"]]:
        """Read every valid shard into a ``key hash -> plan`` table.

        Corrupted/truncated files and shards from another schema version
        are skipped (recorded in :attr:`skipped_files`), never fatal: a
        bad store degrades to a cold start.
        """
        from ..io.serialize import plan_from_record
        entries: dict[str, Optional["GroupPlan"]] = {}
        self.skipped_files = []
        for shard in self.shard_files():
            try:
                payload = json.loads(shard.read_text())
            except (OSError, UnicodeDecodeError, json.JSONDecodeError):
                self.skipped_files.append((shard, "corrupt"))
                continue
            if (not isinstance(payload, dict)
                    or payload.get("schema") != self.schema_version
                    or not isinstance(payload.get("entries"), dict)):
                self.skipped_files.append((shard, "schema"))
                continue
            try:
                entries.update({
                    key: None if record is None else plan_from_record(record)
                    for key, record in payload["entries"].items()
                })
            except (KeyError, TypeError):
                self.skipped_files.append((shard, "corrupt"))
        return entries

    def flush(self, entries: dict[str, Optional["GroupPlan"]],
              ) -> pathlib.Path | None:
        """Atomically persist ``entries`` as one new shard.

        Returns the shard path, or None when there is nothing to write.
        The shard name is a digest of its content, so concurrent flushes
        of the same entries from different workers are idempotent.  A
        shard of that name is kept only if it holds exactly these bytes:
        a damaged one (truncated, say, so ``load`` skipped it) is
        rewritten.
        """
        from ..io.serialize import plan_to_record
        if not entries:
            return None
        payload = {
            "schema": self.schema_version,
            "entries": {key: None if plan is None else plan_to_record(plan)
                        for key, plan in entries.items()},
        }
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()[:16]
        shard = self.path / f"{_SHARD_PREFIX}{digest}{_SHARD_SUFFIX}"
        try:
            if shard.read_bytes() == data:
                return shard  # identical content already persisted
        except OSError:
            pass  # no readable shard of that name: write it
        # PID + UUID only name the *temp* file (uniqueness under
        # concurrent flushes); the shard name and content stay pure
        # functions of the entries.
        unique = f"{os.getpid()}.{uuid.uuid4().hex}"  # repro-lint: disable=R1
        tmp = self.path / f".{_SHARD_PREFIX}{digest}.{unique}.tmp"
        tmp.write_bytes(data)
        os.replace(tmp, shard)
        return shard
