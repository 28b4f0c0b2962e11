"""The always-warm plan-memo server (``chiplet-npu serve``).

A :class:`MemoServer` wraps a disk-backed
:class:`~repro.core.planstore.PlanStore` directory with a threaded HTTP
front end speaking the ``get/put/batch_get/batch_put/stats/compact``
protocol of :mod:`repro.serve.protocol`, plus a ``/sweep`` endpoint that
prices scenario shards for distributed dispatch
(:mod:`repro.serve.dispatch`).

Design points, all inherited from the plan store rather than invented:

* **Startup loads whatever the shards will give.**  Corrupt or
  foreign-schema shards are skipped exactly as ``PlanStore.load`` skips
  them — their keys simply miss on the wire (never an error), and the
  skip manifest is served under ``/stats`` so operators see the loss.
* **Every put persists atomically.**  Accepted records are flushed
  through ``PlanStore.flush_records`` (digest-named shard, temp file +
  ``os.replace``), so a killed server restarts warm with everything it
  ever acknowledged.
* **GC is deterministic.**  :class:`GCPolicy` bounds the table by size
  (``max_entries``) and age (``max_age_puts``, measured in put
  *generations* — the server's logical clock, not the wall clock), and
  eviction order is a pure function of (generation, key): oldest first,
  ties in key order.  Compaction rewrites the store directory to one
  shard minus the evicted records; invalid files are left in place for
  inspection, as ``PlanStore.compact`` leaves them.
* **Out-of-band shards are absorbed, never lost.**  ``/sweep`` pricing
  flushes this process's plan cache straight to the backing directory
  (and a co-hosted worker may flush there too); those shards never pass
  through a put route.  Before any eviction or compaction the server
  folds unseen shard files into the live table, so a rewrite can only
  ever remove records the GC policy doomed — and the get routes serve
  absorbed keys like any other.

Request handling serializes on one lock (the table is a dict; requests
are small), while the ``ThreadingHTTPServer`` keeps slow readers from
blocking the accept loop.  Every request is timed server-side into a
:class:`~repro.serve.protocol.LatencyRecorder` and optionally appended
to a deterministic-format latency log.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..core.plancache import get_plan_cache, plan_cache_stats
from ..core.planstore import SCHEMA_VERSION, PlanStore
from .protocol import (
    PROTOCOL_VERSION,
    LatencyRecorder,
    error_body,
)

#: how often the serve loop checks for ``close()``; socketserver's 0.5 s
#: default would make every shutdown wait up to half a second.
_POLL_INTERVAL_S = 0.05


@dataclass(frozen=True)
class GCPolicy:
    """Deterministic size- and age-bounded eviction for the memo table.

    Age is measured in *put generations* — the server increments its
    generation counter once per accepted put/batch_put request, so the
    policy is a pure function of the request sequence (never of the
    wall clock; repro-lint R1 thinking applied to serving).  ``None``
    disables a bound.
    """

    #: keep at most this many records (evict oldest-generation first,
    #: ties in key order).
    max_entries: int | None = None
    #: evict records not re-put within this many put generations.
    max_age_puts: int | None = None
    #: compact the backing store once it accumulates this many shard
    #: files (each accepted put flushes one).
    compact_after_shards: int = 64

    def __post_init__(self) -> None:
        if self.max_entries is not None and self.max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        if self.max_age_puts is not None and self.max_age_puts < 1:
            raise ValueError("max_age_puts must be >= 1 (or None)")
        if self.compact_after_shards < 1:
            raise ValueError("compact_after_shards must be >= 1")

    def evictions(self, generations: dict[str, int],
                  current_generation: int) -> list[str]:
        """Keys to evict, in deterministic (generation, key) order."""
        doomed: set[str] = set()
        if self.max_age_puts is not None:
            doomed.update(
                key for key, gen in generations.items()
                if current_generation - gen > self.max_age_puts)
        if self.max_entries is not None:
            live = [(gen, key) for key, gen in generations.items()
                    if key not in doomed]
            excess = len(live) - self.max_entries
            if excess > 0:
                doomed.update(key for _, key in sorted(live)[:excess])
        return sorted(doomed, key=lambda key: (generations[key], key))


class MemoServer:
    """The networked memo store: a plan-store directory behind HTTP."""

    def __init__(self, store_path: str | pathlib.Path,
                 host: str = "127.0.0.1", port: int = 0,
                 gc_policy: GCPolicy | None = None,
                 latency_log: str | pathlib.Path | None = None,
                 schema_version: int = SCHEMA_VERSION) -> None:
        self.store = PlanStore(store_path, schema_version=schema_version)
        #: key hash -> raw JSON record (None = memoized-infeasible).
        self.records: dict[str, Optional[dict]] = \
            self.store.load_records()
        #: shard name -> skip reason, for every file the startup load
        #: (or a later absorption) refused.  These are the files
        #: compaction must leave in place for inspection, and the
        #: manifest the ``/stats`` route serves.
        self._skipped: dict[str, str] = {
            shard.name: reason
            for shard, reason in self.store.skipped_files}
        #: shard files already folded into the table (or skipped).
        #: Shards are immutable and content-addressed, so each file
        #: needs examining at most once.
        self._absorbed: set[str] = {
            shard.name for shard in self.store.shard_files()}
        #: put generation each key was last written in (0 = startup).
        self.generations: dict[str, int] = dict.fromkeys(self.records, 0)
        self.generation = 0
        self.gc_policy = gc_policy or GCPolicy()
        self.evicted_total = 0
        self.compactions = 0
        self.latency = LatencyRecorder()
        self._latency_log = (pathlib.Path(latency_log)
                             if latency_log is not None else None)
        self._lock = threading.Lock()
        self._httpd = ThreadingHTTPServer((host, port),
                                          _make_handler(self))
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------

    @property
    def load_skipped(self) -> list[dict]:
        """Skipped-shard manifest: ``[{"file", "reason"}, ...]``, sorted.

        Same shape as ``PlanStore.skipped_manifest``; covers files the
        startup load skipped plus any absorbed later and found bad.
        """
        return [{"file": name, "reason": reason}
                for name, reason in sorted(self._skipped.items())]

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Block serving requests (the ``chiplet-npu serve`` loop)."""
        self._httpd.serve_forever(poll_interval=_POLL_INTERVAL_S)

    def start(self) -> "MemoServer":
        """Serve on a daemon thread (tests, CI smoke, embedded use)."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MemoServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request handling ----------------------------------------------

    def handle(self, route: str, payload: dict) -> tuple[int, dict]:
        """Dispatch one parsed request; returns (HTTP status, body).

        Pure routing — timing and transport live in the HTTP handler.
        """
        handlers = {
            "/get": self._handle_get,
            "/put": self._handle_put,
            "/batch_get": self._handle_batch_get,
            "/batch_put": self._handle_batch_put,
            "/stats": self._handle_stats,
            "/compact": self._handle_compact,
            "/sweep": self._handle_sweep,
        }
        handler = handlers.get(route)
        if handler is None:
            return 404, error_body("unknown_route", route)
        if not isinstance(payload, dict):
            return 400, error_body("bad_request",
                                   "request body must be a JSON object")
        try:
            body = handler(payload)
        except _BadRequest as exc:
            return 400, error_body("bad_request", str(exc))
        body.setdefault("protocol", PROTOCOL_VERSION)
        body.setdefault("schema", self.store.schema_version)
        return 200, body

    def _schema_matches(self, payload: dict) -> bool:
        """Whether the request's schema version matches the server's.

        A missing field counts as a mismatch: the wire contract is the
        plan store's — a shard (or request) without the right stamp is
        stale, and stale means miss/no-op, never error.
        """
        return payload.get("schema") == self.store.schema_version

    def _handle_get(self, payload: dict) -> dict:
        key = payload.get("key")
        if not isinstance(key, str):
            raise _BadRequest("'key' must be a string")
        with self._lock:
            if not self._schema_matches(payload) \
                    or key not in self.records:
                return {"found": False}
            return {"found": True, "record": self.records[key]}

    def _handle_batch_get(self, payload: dict) -> dict:
        want_all = payload.get("all", False)
        keys = payload.get("keys")
        if not want_all and not isinstance(keys, list):
            raise _BadRequest("'keys' must be a list (or pass all=true)")
        with self._lock:
            if not self._schema_matches(payload):
                return {"records": {}}
            if want_all:
                return {"records": dict(self.records)}
            return {"records": {key: self.records[key] for key in keys
                                if isinstance(key, str)
                                and key in self.records}}

    def _handle_put(self, payload: dict) -> dict:
        key = payload.get("key")
        if not isinstance(key, str) or "record" not in payload:
            raise _BadRequest("'key' (string) and 'record' are required")
        return self._accept({key: payload["record"]}, payload)

    def _handle_batch_put(self, payload: dict) -> dict:
        records = payload.get("records")
        if not isinstance(records, dict):
            raise _BadRequest("'records' must be an object")
        return self._accept(records, payload)

    def _accept(self, records: dict, payload: dict) -> dict:
        """Store records from one put request (one generation tick).

        Schema-skewed writers are ignored wholesale — a stale client
        must not poison the table, just as a stale shard never loads.
        """
        if not self._schema_matches(payload):
            return {"stored": 0, "ignored": len(records)}
        with self._lock:
            self.generation += 1
            for key in sorted(records):
                self.records[key] = records[key]
                self.generations[key] = self.generation
            flushed = self.store.flush_records(records)
            if flushed is not None:
                # this shard's entries are the table's; never re-read it
                self._absorbed.add(flushed.name)
            evicted = self._collect_locked()
        return {"stored": len(records), "evicted": evicted}

    def _handle_stats(self, payload: dict) -> dict:
        with self._lock:
            entries = len(self.records)
            generation = self.generation
            evicted = self.evicted_total
            compactions = self.compactions
            skipped = self.load_skipped
        return {
            "entries": entries,
            "generation": generation,
            "requests": self.latency.report(),
            "gc": {"evicted": evicted, "compactions": compactions,
                   "policy": {
                       "max_entries": self.gc_policy.max_entries,
                       "max_age_puts": self.gc_policy.max_age_puts,
                       "compact_after_shards":
                           self.gc_policy.compact_after_shards,
                   }},
            "store_skipped": skipped,
        }

    def _handle_compact(self, payload: dict) -> dict:
        with self._lock:
            evicted = self._collect_locked(force=True)
            entries = len(self.records)
            shards = len(self.store.shard_files())
        return {"evicted": evicted, "entries": entries, "shards": shards}

    # -- GC / compaction -----------------------------------------------

    def _collect_locked(self, force: bool = False) -> int:
        """Apply the GC policy; compact when due.  Caller holds the lock.

        Returns the number of records evicted.  Out-of-band shards are
        absorbed into the table *first*, so eviction is the only way a
        persisted record ever leaves.  Compaction happens when forced
        (``/compact``), when anything was evicted (the doomed records
        must leave the disk too, not just the table), or when the
        shard-file count crosses the policy threshold.
        """
        self._absorb_locked()
        doomed = self.gc_policy.evictions(self.generations,
                                          self.generation)
        for key in doomed:
            del self.records[key]
            del self.generations[key]
        self.evicted_total += len(doomed)
        shard_count = len(self.store.shard_files())
        if force or doomed \
                or shard_count >= self.gc_policy.compact_after_shards:
            self._compact_locked()
        return len(doomed)

    def _absorb_locked(self) -> int:
        """Fold shards written outside the put routes into the table.

        ``/sweep`` pricing flushes the plan cache straight to the
        backing directory, and a co-hosted worker may flush there too;
        those shards never pass through :meth:`_accept`.  Reading them
        into the table (at the current generation) lets the get routes
        serve their keys and keeps compaction from discarding them.
        Corrupt/foreign files get the load's tolerance — skipped into
        the ``/stats`` manifest, never an error — and are thereafter
        protected from compaction's unlink pass.  Caller holds the
        lock; returns the number of records absorbed.
        """
        absorbed = 0
        for shard in self.store.shard_files():
            if shard.name in self._absorbed:
                continue
            self._absorbed.add(shard.name)
            try:
                payload = json.loads(shard.read_text())
            except (OSError, UnicodeDecodeError, json.JSONDecodeError):
                self._skipped[shard.name] = "corrupt"
                continue
            if (not isinstance(payload, dict)
                    or payload.get("schema") != self.store.schema_version
                    or not isinstance(payload.get("entries"), dict)):
                self._skipped[shard.name] = "schema"
                continue
            for key, record in payload["entries"].items():
                if key not in self.records:
                    self.records[key] = record
                    self.generations[key] = self.generation
                    absorbed += 1
        return absorbed

    def _compact_locked(self) -> None:
        """Rewrite the store directory to exactly the live table.

        The merged shard lands atomically before the sources are
        removed; files skipped as corrupt/stale (at startup or during
        absorption) are left in place for inspection — the
        ``PlanStore.compact`` convention — so the ``/stats`` manifest
        keeps naming files that actually exist.
        """
        sources = self.store.shard_files()
        merged = self.store.flush_records(self.records)
        for shard in sources:
            if shard != merged and shard.name not in self._skipped:
                try:
                    shard.unlink()
                except OSError:  # pragma: no cover - concurrent unlink
                    pass
        # Only the merged shard and the skipped files are known to
        # remain; anything landing concurrently must stay unabsorbed so
        # the next collection folds it in.
        self._absorbed = set(self._skipped)
        if merged is not None:
            self._absorbed.add(merged.name)
        self.compactions += 1

    # -- distributed dispatch ------------------------------------------

    def _handle_sweep(self, payload: dict) -> dict:
        """Price a shard of scenarios for a dispatch client.

        Rebuilds each scenario from its ``to_dict`` payload and prices
        it with this process's plan cache (schedulers are pure, so the
        rows are byte-identical to any other worker's).  Failures are
        shipped back as data, one record per scenario — the dispatch
        layer decides retry vs quarantine, mirroring the in-process
        runner's chunk protocol.
        """
        from ..sweep.resilience import error_class
        from ..sweep.runner import layer_cost_cache_stats, run_scenario
        from ..sweep.scenario import Scenario
        raw = payload.get("scenarios")
        if not isinstance(raw, list):
            raise _BadRequest("'scenarios' must be a list of objects")
        outcomes: list[dict] = []
        failures: list[dict] = []
        for spec in raw:
            try:
                scenario = Scenario.from_dict(spec)
            except (TypeError, ValueError, KeyError) as exc:
                failures.append({"key": str(spec), "error":
                                 error_class(exc), "attempts": 1,
                                 "detail": str(exc)})
                continue
            plan_before = plan_cache_stats()
            layer_before = layer_cost_cache_stats()
            try:
                row = run_scenario(scenario)
            except Exception as exc:
                failures.append({"key": scenario.key,
                                 "error": error_class(exc),
                                 "attempts": 1, "detail": str(exc)})
                continue
            outcomes.append({
                "key": scenario.key,
                "row": row,
                "plan_cache":
                    (plan_cache_stats() - plan_before).to_dict(),
                "layer_cache":
                    (layer_cost_cache_stats() - layer_before).to_dict(),
            })
        get_plan_cache().flush_to_store()
        # The flush above writes shards to the backing directory without
        # passing through a put route; fold them into the live table so
        # get/batch_get serve them and compaction keeps them (GC policy
        # still applies, same as any put).
        with self._lock:
            self._collect_locked()
        return {"outcomes": outcomes, "failures": failures}

    # -- timing --------------------------------------------------------

    def observe(self, route: str, duration_ms: float) -> None:
        """Record one request's server-side latency sample."""
        request_class = route.lstrip("/") or "root"
        self.latency.record(request_class, duration_ms)
        if self._latency_log is not None:
            line = self.latency.log_line(request_class, duration_ms)
            with self._lock:
                with self._latency_log.open("a") as handle:
                    handle.write(line + "\n")


class _BadRequest(ValueError):
    """Raised by route handlers on malformed payloads (HTTP 400)."""


def _make_handler(server: MemoServer):
    """The request-handler class bound to one :class:`MemoServer`."""

    class Handler(BaseHTTPRequestHandler):
        #: keep CI logs quiet; latency goes to the recorder instead.
        def log_message(self, *args) -> None:  # pragma: no cover
            pass

        def do_POST(self) -> None:
            started = time.perf_counter()
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                self._reply(400, error_body(
                    "bad_request", "malformed Content-Length header"))
                return
            raw = self.rfile.read(length) if length > 0 else b"{}"
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                self._reply(400, error_body("bad_request",
                                            "body is not valid JSON"))
                return
            try:
                status, body = server.handle(self.path, payload)
            except Exception:  # pragma: no cover - handler bug guard
                status, body = 500, error_body("internal")
            # Observe before replying: once a client has read its
            # response, the sample is guaranteed visible to any stats
            # request it makes next (no read-your-own-request race).
            server.observe(self.path,
                           (time.perf_counter() - started) * 1e3)
            self._reply(status, body)

        def do_GET(self) -> None:
            # Convenience read-only aliases (curl-ability): /stats and
            # /healthz answer GETs; everything else is POST-only.
            if self.path == "/healthz":
                self._reply(200, {"ok": True,
                                  "protocol": PROTOCOL_VERSION,
                                  "schema": server.store.schema_version})
                return
            if self.path == "/stats":
                status, body = server.handle("/stats", {})
                self._reply(status, body)
                return
            self._reply(404, error_body("unknown_route", self.path))

        def _reply(self, status: int, body: dict) -> None:
            data = json.dumps(body, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

    return Handler
