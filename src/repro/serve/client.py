"""HTTP client for the memo server, attachable as a plan store.

:class:`RemoteStoreClient` satisfies the
:class:`~repro.core.plancache.PlanStoreLike` protocol, so
``PlanCache.attach_store`` (and therefore the whole sweep engine via
``--store-url``) accepts it interchangeably with the disk-backed
:class:`~repro.core.planstore.PlanStore`:

* ``load()`` is one batched round-trip (``batch_get`` with
  ``all=true``) deserialized through the same ``plan_from_record`` path
  disk shards use — a warm server start is byte-identical to a warm
  disk start, and reports ``misses: 0`` exactly the same way.
* ``flush(entries)`` is one batched ``batch_put`` of
  ``plan_to_record`` dumps — the records the server persists are the
  records a disk flush would have written.
* ``key_hash`` is inherited from
  :class:`~repro.core.planstore.PlanKeyMemo`, so the client mints
  content hashes with the *identical* canonicalization the disk store
  uses (hashing stays confined to ``core/planstore.py`` per repro-lint
  R2) and the two store kinds can never disagree about a key.

Transient transport failures (connection refused, resets, timeouts,
HTTP 5xx) retry on the PR 7 deterministic
:class:`~repro.sweep.resilience.RetryPolicy` schedule through an
injectable :class:`~repro.sweep.resilience.Clock`; deterministic
protocol violations (HTTP 4xx, protocol-version skew) raise
:class:`~repro.serve.protocol.ServeProtocolError` immediately —
re-sending a malformed exchange cannot change the answer.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import TYPE_CHECKING, Optional

from ..core.planstore import SCHEMA_VERSION, PlanKeyMemo, is_store_url
from ..sweep.resilience import Clock, RealClock, RetryPolicy
from .protocol import PROTOCOL_VERSION, ServeProtocolError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.sharding import GroupPlan


class RemoteStoreClient(PlanKeyMemo):
    """A memo-server connection with the disk store's attach surface."""

    def __init__(self, url: str,
                 retry: RetryPolicy | None = None,
                 clock: Clock | None = None,
                 timeout_s: float = 30.0,
                 schema_version: int = SCHEMA_VERSION) -> None:
        super().__init__()
        if not is_store_url(url):
            raise ValueError(
                f"store URL must start with http:// or https://; "
                f"got {url!r}")
        #: normalized server URL; doubles as the attach identity the
        #: runner compares, mirroring ``PlanStore.path``.
        self.path = url.rstrip("/")
        self.retry = retry if retry is not None else RetryPolicy()
        self.clock = clock if clock is not None else RealClock()
        self.timeout_s = timeout_s
        self.schema_version = schema_version

    @property
    def url(self) -> str:
        return self.path

    def __repr__(self) -> str:
        return f"RemoteStoreClient({self.path!r})"

    # -- transport -----------------------------------------------------

    def post(self, route: str, payload: dict | None = None) -> dict:
        """One protocol exchange with deterministic retries.

        The backoff schedule is keyed by the route (stable across runs);
        HTTP 5xx counts as transient, HTTP 4xx and protocol-version
        skew raise :class:`ServeProtocolError` without retrying.
        """
        body = dict(payload or {})
        body.setdefault("schema", self.schema_version)
        data = json.dumps(body, sort_keys=True).encode("utf-8")
        attempt = 1
        while True:
            if attempt > 1:
                self.clock.sleep(
                    self.retry.backoff_s(f"serve:{route}", attempt))
            try:
                return self._post_once(route, data)
            except ServeProtocolError:
                raise
            except (urllib.error.URLError, ConnectionError,
                    TimeoutError, OSError) as error:
                if self.retry.is_retryable(error) \
                        and attempt < self.retry.max_attempts:
                    attempt += 1
                    continue
                raise

    def _post_once(self, route: str, data: bytes) -> dict:
        request = urllib.request.Request(
            self.path + route, data=data,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(
                    request, timeout=self.timeout_s) as response:
                raw = response.read()
        except urllib.error.HTTPError as error:
            if error.code >= 500:
                raise  # transient server side; the retry loop decides
            raise ServeProtocolError(
                f"{route} rejected with HTTP {error.code}") from error
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServeProtocolError(
                f"{route} returned a non-JSON body") from error
        protocol = body.get("protocol")
        if protocol is not None and protocol != PROTOCOL_VERSION:
            raise ServeProtocolError(
                f"{route} speaks protocol {protocol}, "
                f"client speaks {PROTOCOL_VERSION}")
        return body

    # -- PlanStoreLike surface -----------------------------------------

    def load(self) -> dict[str, Optional["GroupPlan"]]:
        """Every served entry, deserialized like a disk-shard load.

        A schema-skewed server answers with an empty table — the remote
        analogue of a stale store degrading to a cold start.
        """
        from ..io.serialize import plan_from_record
        records = self.post("/batch_get", {"all": True}) \
            .get("records", {})
        return {key: None if record is None
                else plan_from_record(record)
                for key, record in records.items()}

    def flush(self, entries: dict[str, Optional["GroupPlan"]]) -> int:
        """Batch-put newly computed entries; returns the stored count."""
        from ..io.serialize import plan_to_record
        if not entries:
            return 0
        records = {key: None if plan is None else plan_to_record(plan)
                   for key, plan in entries.items()}
        return int(self.post("/batch_put",
                             {"records": records}).get("stored", 0))

    # ``key_hash`` is PlanKeyMemo's — the exact disk-store hashing.

    # -- raw-record and operator surface -------------------------------

    def get_record(self, key: str) -> tuple[bool, Optional[dict]]:
        """One raw record: ``(found, record)``; a miss is ``(False, None)``."""
        body = self.post("/get", {"key": key})
        return bool(body.get("found")), body.get("record")

    def put_record(self, key: str, record: Optional[dict]) -> int:
        """Store one raw record; returns the server's stored count."""
        return int(self.post("/put", {"key": key,
                                      "record": record}).get("stored", 0))

    def batch_get(self, keys: list[str]) -> dict[str, Optional[dict]]:
        """Raw records for ``keys`` (absent keys simply missing)."""
        return self.post("/batch_get", {"keys": list(keys)}) \
            .get("records", {})

    def batch_put(self, records: dict[str, Optional[dict]]) -> int:
        """Store raw records; returns the server's stored count."""
        return int(self.post("/batch_put",
                             {"records": dict(records)}).get("stored", 0))

    def stats(self) -> dict:
        """The server's ``/stats`` document (entries, latency, GC)."""
        return self.post("/stats")

    def compact(self) -> dict:
        """Force server-side GC + compaction; returns its report."""
        return self.post("/compact")

    def skipped_manifest(self) -> list[dict]:
        """Corrupt/stale shard manifest of the server's backing store.

        The remote analogue of ``PlanStore.skipped_manifest`` — how
        ``SweepResult.store_skipped`` reports shard loss for URL stores.
        """
        return list(self.stats().get("store_skipped", []))

    def sweep(self, scenario_payloads: list[dict]) -> dict:
        """Price a scenario shard on the server (dispatch transport)."""
        return self.post("/sweep", {"scenarios": list(scenario_payloads)})
