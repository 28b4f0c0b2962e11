"""Deterministic retry/backoff policy for fault-tolerant sweep execution.

The sweep engine prices pure functions of frozen scenarios, but the
*infrastructure* running them is not pure: worker processes die
(``BrokenProcessPool``), chunks hang, shared stores lose shards.  This
module is the policy layer the runner consults when that happens:

* :class:`RetryPolicy` bounds the attempts per scenario and computes a
  **deterministic** backoff — a pure function of the attempt number and
  the scenario key, never of the wall clock, the PID, or entropy, so the
  retry schedule passes the repro-lint R1 determinism gate and replays
  identically in every process.  Actually *waiting* that backoff out is
  delegated to an injectable :class:`Clock`, so tests (and CI) retry
  instantly while production sweeps space their re-dispatches.
* :class:`TransientError` marks the failures worth retrying (injected
  faults, worker crashes, I/O hiccups); deterministic errors — a
  ``ValueError`` from a scenario that can never price — are quarantined
  on the first attempt, because re-running a pure function cannot
  change its answer.
* :class:`SweepFailure` is the quarantine record: the scenario key, a
  rule-stable error class (the exception type name — never a memory
  address or timestamp), and the attempts spent.  Strict merges raise
  :class:`SweepQuarantineError` carrying those records; ``strict=False``
  merges return them as the partial result's ``failures`` manifest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Protocol

#: modulus of the key-jitter rolling hash (a prime, so single-character
#: key edits move the fraction; small enough to stay exact in floats).
_JITTER_MODULUS = 1_000_003

#: base of the rolling hash (any small prime > the byte alphabet works).
_JITTER_BASE = 131


class Clock(Protocol):
    """Where retry backoff actually waits.  Injectable for tests."""

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds`` (implementations may record instead)."""
        ...  # pragma: no cover - protocol stub


class RealClock:
    """Wall-clock sleeping — the default outside tests.

    The *duration* slept is always computed by :meth:`RetryPolicy.backoff_s`
    (deterministic); only the act of waiting touches the real clock, which
    is why this is the single sanctioned ``time.sleep`` call site.
    """

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)  # repro-lint: disable=R1

    def __repr__(self) -> str:  # keep ScenarioSweep reprs readable
        return "RealClock()"


class NullClock:
    """Recording no-op clock: tests assert the schedule without waiting."""

    def __init__(self) -> None:
        #: every backoff requested, in request order.
        self.slept: list[float] = []

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)

    def __repr__(self) -> str:
        return f"NullClock(slept={self.slept!r})"


def key_fraction(key: str) -> float:
    """Deterministic jitter fraction in ``[0, 1)`` derived from a key.

    A fixed-base polynomial rolling hash over the key's code points —
    deliberately *not* ``hashlib`` (R2 confines that to the plan store)
    and *not* entropy (R1 bans it): the same key yields the same
    fraction in every process on every run, so two scenarios that fail
    together still re-dispatch on distinct, reproducible schedules.
    """
    acc = 0
    for ch in key:
        acc = (acc * _JITTER_BASE + ord(ch)) % _JITTER_MODULUS
    return acc / _JITTER_MODULUS


class TransientError(RuntimeError):
    """Base class for failures the retry layer treats as transient."""


class WorkerCrashError(TransientError):
    """A worker process died (or hung past the watchdog) mid-chunk.

    Synthesized by the runner when a ``BrokenProcessPool`` or a chunk
    watchdog timeout loses in-flight work — the chunks themselves never
    raised, so this stands in as the (retryable, rule-stable) cause.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry schedule for sweep scenarios.

    ``backoff_s`` is exponential in the attempt number and scaled by a
    key-derived fraction (see :func:`key_fraction`); it never consults
    the wall clock, so the full schedule for any grid is known before
    the sweep starts.  ``chunk_timeout_s`` arms the parallel runner's
    watchdog: if *no* chunk completes within it, the pool is presumed
    hung, killed, and the in-flight chunks re-dispatched.
    """

    #: total tries per scenario (1 = no retries).
    max_attempts: int = 3
    #: backoff before the second attempt; doubles per further attempt.
    backoff_base_s: float = 0.05
    #: ceiling on any single backoff.
    backoff_cap_s: float = 2.0
    #: parallel watchdog: seconds without any chunk completion before
    #: the pool is declared hung (None = never).
    chunk_timeout_s: float | None = None
    #: exception types worth retrying; anything else is deterministic
    #: and quarantines on the first failure.
    retryable: tuple = (TransientError, TimeoutError, ConnectionError,
                        EOFError, OSError, MemoryError)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff values must be >= 0")
        if self.chunk_timeout_s is not None and self.chunk_timeout_s <= 0:
            raise ValueError("chunk_timeout_s must be positive (or None)")

    def is_retryable(self, error: BaseException) -> bool:
        """Whether ``error`` is transient (worth another attempt)."""
        return isinstance(error, self.retryable)

    def backoff_s(self, key: str, attempt: int) -> float:
        """Deterministic pause before dispatching ``attempt`` of ``key``.

        ``attempt`` is the attempt about to run (2 = first retry).  Pure
        function of its arguments: exponential in the attempt, scaled by
        the key's jitter fraction, capped at :attr:`backoff_cap_s`.
        """
        if attempt <= 1:
            return 0.0
        raw = (self.backoff_base_s * (2 ** (attempt - 2))
               * (1.0 + key_fraction(key)))
        return min(self.backoff_cap_s, raw)


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
