"""Journal-backed sweep checkpoints: atomic append-per-outcome, resume.

A crashed sweep must not forfeit its completed work.  The plan store
already keeps *plans* warm across crashes; :class:`SweepJournal` does
the same for finished *rows*: the orchestrator checkpoints every outcome
the moment it lands, and a rerun with the same ``ScenarioSweep(journal=...)``
replays the journal and prices only the scenarios it is missing.

The on-disk idiom is the :class:`~repro.core.planstore.PlanStore` one —
immutable record files landed by temp-write + ``os.replace`` rename, so
a reader (or a resuming run) never observes a partial record and a crash
mid-write leaves at worst an orphaned ``.tmp`` file that the next load
ignores:

* one ``outcome-<index>.json`` per completed scenario, named by the
  scenario's grid index (the journal belongs to one grid; the writer is
  the single orchestrator process, so index names cannot collide);
* one ``failure-<index>.json`` per quarantined scenario — kept for the
  failure manifest and post-mortems, but **never** replayed: a resumed
  sweep re-attempts quarantined scenarios from scratch, because the
  fault that killed them may have been transient;
* every record is stamped with :data:`JOURNAL_SCHEMA_VERSION`; records
  from another version (or corrupt/truncated files, or records with a
  damaged field) are skipped and recorded in
  :attr:`SweepJournal.skipped_files`, so a stale journal degrades to
  re-pricing instead of resurrecting wrong rows.

Rows round-trip byte-exactly: the payload is the row dict JSON that
``rows_json()`` serializes anyway (floats round-trip via ``repr``), so a
crashed-then-resumed sweep produces output byte-identical to an
uninterrupted run — the property the CI fault-injection smoke locks.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import TYPE_CHECKING

from ..core.plancache import CacheStats
from .resilience import SweepFailure

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from .runner import SweepOutcome

#: journal record layout revision; bump when the payload changes meaning.
JOURNAL_SCHEMA_VERSION = 1

_OUTCOME_PREFIX = "outcome-"
_FAILURE_PREFIX = "failure-"
_SUFFIX = ".json"

#: what ``int()`` raises on a damaged counter: null, a non-numeric
#: string, or an overflowing number (JSON ``1e400`` loads as infinity).
_BAD_NUMBER = (TypeError, ValueError, OverflowError)


class SweepJournal:
    """A directory of per-outcome checkpoint records for one sweep grid."""

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        #: files ignored by the last load(): (path, reason) pairs,
        #: reason in {"corrupt", "schema"} — the PlanStore convention.
        self.skipped_files: list[tuple[pathlib.Path, str]] = []

    # ------------------------------------------------------------------
    # writing (single orchestrator process)
    # ------------------------------------------------------------------

    def _write(self, name: str, payload: dict) -> pathlib.Path:
        """Land one immutable record atomically (temp + rename)."""
        target = self.path / f"{name}{_SUFFIX}"
        tmp = self.path / f".{name}{_SUFFIX}.tmp"
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, target)
        return target

    def record(self, index: int, outcome: "SweepOutcome") -> pathlib.Path:
        """Checkpoint one completed scenario under its grid index."""
        return self._write(f"{_OUTCOME_PREFIX}{index:05d}", {
            "schema": JOURNAL_SCHEMA_VERSION,
            "index": index,
            "key": outcome.key,
            "row": outcome.row,
            "plan_cache": outcome.plan_cache.to_dict(),
            "layer_cache": outcome.layer_cache.to_dict(),
        })

    def record_failure(self, index: int,
                       failure: SweepFailure) -> pathlib.Path:
        """Checkpoint one quarantined scenario (never replayed)."""
        return self._write(f"{_FAILURE_PREFIX}{index:05d}", {
            "schema": JOURNAL_SCHEMA_VERSION,
            "index": index,
            "key": failure.key,
            "error": failure.error,
            "attempts": failure.attempts,
            "detail": failure.detail,
        })

    # ------------------------------------------------------------------
    # reading (resume / inspection)
    # ------------------------------------------------------------------

    def outcome_files(self) -> list[pathlib.Path]:
        """All outcome records currently journaled, sorted by index."""
        return sorted(self.path.glob(f"{_OUTCOME_PREFIX}*{_SUFFIX}"))

    def failure_files(self) -> list[pathlib.Path]:
        """All failure records currently journaled, sorted by index."""
        return sorted(self.path.glob(f"{_FAILURE_PREFIX}*{_SUFFIX}"))

    def _read(self, record: pathlib.Path) -> dict | None:
        """One record's payload; None (and a skip entry) when invalid."""
        try:
            payload = json.loads(record.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            self.skipped_files.append((record, "corrupt"))
            return None
        if (not isinstance(payload, dict)
                or payload.get("schema") != JOURNAL_SCHEMA_VERSION):
            self.skipped_files.append((record, "schema"))
            return None
        return payload

    def load(self) -> dict[str, "SweepOutcome"]:
        """Replay every valid outcome record into a ``key -> outcome`` map.

        Corrupt, truncated, or stale-schema records, and records whose
        key, row or counters are damaged, are skipped (and listed in
        :attr:`skipped_files`), never fatal: a damaged journal degrades
        to re-pricing the affected scenarios.  Keys this version does
        not write (an older journal's ``fingerprint``) are ignored.
        Failure records are deliberately absent — resume re-attempts
        quarantined keys.
        """
        from .runner import SweepOutcome
        self.skipped_files = []
        outcomes: dict[str, SweepOutcome] = {}
        for record in self.outcome_files():
            payload = self._read(record)
            if payload is None:
                continue
            key, row = payload.get("key"), payload.get("row")
            if not isinstance(key, str) or not isinstance(row, dict):
                self.skipped_files.append((record, "corrupt"))
                continue
            try:
                outcomes[key] = SweepOutcome(
                    key=key,
                    row=row,
                    plan_cache=CacheStats.from_dict(payload.get("plan_cache")),
                    layer_cache=CacheStats.from_dict(
                        payload.get("layer_cache")),
                )
            except _BAD_NUMBER:
                self.skipped_files.append((record, "corrupt"))
        return outcomes

    def load_failures(self) -> list[SweepFailure]:
        """The journaled failure records (post-mortem inspection)."""
        failures = []
        for record in self.failure_files():
            payload = self._read(record)
            if payload is None:
                continue
            key = payload.get("key")
            if not isinstance(key, str):
                self.skipped_files.append((record, "corrupt"))
                continue
            try:
                attempts = int(payload.get("attempts", 0))
            except _BAD_NUMBER:
                self.skipped_files.append((record, "corrupt"))
                continue
            failures.append(SweepFailure(
                key=key,
                error=str(payload.get("error", "")),
                attempts=attempts,
                detail=str(payload.get("detail", "")),
            ))
        return failures
