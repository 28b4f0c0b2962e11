"""Sweep-as-a-service: the networked plan-memo server and its clients.

The serving layer promotes the PR 2 directory-shared
:class:`~repro.core.planstore.PlanStore` into an always-warm service
(see ``docs/SERVING.md`` and ``docs/ARCHITECTURE.md``):

* :mod:`repro.serve.protocol` — the POST-JSON wire contract (schema
  skew and corrupt shards are misses, never errors), the deterministic
  error taxonomy, and nearest-rank p50/p99 latency accounting;
* :mod:`repro.serve.server` — :class:`MemoServer`
  (``chiplet-npu serve``): a threaded HTTP front end over a plan-store
  directory with a deterministic size/age-bounded :class:`GCPolicy`;
* :mod:`repro.serve.client` — :class:`RemoteStoreClient`, attachable to
  :class:`~repro.core.plancache.PlanCache` interchangeably with the
  disk store (``chiplet-npu sweep --store-url``);
* :mod:`repro.serve.dispatch` — distributed grid execution across
  remote ``/sweep`` workers, merged through the sweep engine's
  order-independent merge (``chiplet-npu sweep --dispatch``).
"""

from ..core.planstore import is_store_url
from .client import RemoteStoreClient
from .dispatch import dispatch_sweep, shard_round_robin
from .protocol import (
    PROTOCOL_VERSION,
    REQUEST_CLASSES,
    LatencyRecorder,
    LatencySummary,
    ServeProtocolError,
    percentile,
    render_latency_report,
)
from .server import GCPolicy, MemoServer

__all__ = [
    "PROTOCOL_VERSION",
    "REQUEST_CLASSES",
    "GCPolicy",
    "LatencyRecorder",
    "LatencySummary",
    "MemoServer",
    "RemoteStoreClient",
    "ServeProtocolError",
    "dispatch_sweep",
    "is_store_url",
    "percentile",
    "render_latency_report",
    "shard_round_robin",
]
