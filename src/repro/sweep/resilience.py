"""Retry bound and quarantine records for fault-tolerant sweep execution.

The sweep engine prices pure functions of frozen scenarios, but the
*infrastructure* running them is not pure: worker processes die
(``BrokenProcessPool``), shared stores lose shards.  This module is the
policy layer the runner consults when that happens:

* :data:`RETRYABLE` names the failures worth retrying (worker crashes,
  I/O hiccups); deterministic errors — a ``ValueError`` from a scenario
  that can never price — are quarantined on the first attempt, because
  re-running a pure function cannot change its answer.
  :data:`MAX_ATTEMPTS` bounds the attempts per scenario, and a retry
  runs at once: nothing the sweep retries waits on an outside resource
  (the store is a local directory written atomically, and a crashed
  worker's pool is respawned), so there is no wait to schedule.
* :class:`SweepFailure` is the quarantine record: the scenario key, a
  rule-stable error class (the exception type name — never a memory
  address or timestamp), and the attempts spent.  Strict merges raise
  :class:`SweepQuarantineError` carrying those records; ``strict=False``
  merges return them as the partial result's ``failures`` manifest.
"""

from __future__ import annotations

from dataclasses import dataclass


class WorkerCrashError(RuntimeError):
    """A worker process died mid-scenario.

    Synthesized by the runner when a ``BrokenProcessPool`` loses
    in-flight work — the tasks themselves never raised, so this stands
    in as the (retryable, rule-stable) cause.
    """


#: exception types worth retrying; anything else is deterministic and
#: quarantines on the first failure.  ``OSError`` covers
#: ``TimeoutError`` and ``ConnectionError``.
RETRYABLE = (WorkerCrashError, OSError, EOFError, MemoryError)

#: total tries per scenario on retryable failures, the first included.
MAX_ATTEMPTS = 3


def error_class(error: BaseException) -> str:
    """Rule-stable failure label: the exception type name.

    Deliberately *not* ``str(error)`` (messages may embed paths or
    counters) and not ``repr`` (may embed addresses): two runs that fail
    the same way produce the same manifest bytes.
    """
    return type(error).__name__


@dataclass(frozen=True)
class SweepFailure:
    """A quarantined scenario: key, stable error class, attempts spent.

    ``detail`` keeps the last attempt's human-readable message for
    operators; :meth:`to_manifest` deliberately excludes it, so the
    deterministic ``failures`` manifest carries only rule-stable fields.
    """

    key: str
    error: str
    attempts: int
    detail: str = ""

    def to_manifest(self) -> dict:
        """The deterministic manifest entry (sorted-key JSON safe)."""
        return {"key": self.key, "error": self.error,
                "attempts": self.attempts}


class SweepQuarantineError(RuntimeError):
    """Strict merge refusing a grid with quarantined scenarios."""

    def __init__(self, failures: list) -> None:
        #: the :class:`SweepFailure` records, in grid order.
        self.failures = list(failures)
        listing = "; ".join(
            f"{f.key} [{f.error} after {f.attempts} attempt(s)]"
            + (f": {f.detail}" if f.detail else "")
            for f in self.failures)
        noun = "scenario" if len(self.failures) == 1 else "scenarios"
        super().__init__(
            f"{len(self.failures)} {noun} quarantined after exhausted "
            f"retries (pass strict=False / --keep-going for a partial "
            f"result): {listing}")
