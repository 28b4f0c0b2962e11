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

* one ``outcome-<seq>.json`` per completed scenario, named by the
  journal's next free sequence number (shared by both record kinds), so
  a rerun with a changed grid appends and never overwrites another
  key's record; the writer is the single orchestrator process, so
  names cannot collide, and when records repeat a key the last valid
  one wins;
* one ``failure-<seq>.json`` per quarantined scenario — kept for the
  failure manifest and post-mortems, but **never** replayed: a resumed
  sweep re-attempts quarantined scenarios from scratch, because the
  fault that killed them may have been transient;
* every record is stamped with :data:`JOURNAL_SCHEMA_VERSION`; records
  from another version (or corrupt/truncated files, or records with a
  damaged field) are skipped and recorded in
  :attr:`SweepJournal.skipped_files`, so a stale journal degrades to
  re-pricing instead of resurrecting wrong rows.

Journals whose records are named by grid index (the earlier layout)
load unchanged: the numbers only order the records.

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


def _seq(record: pathlib.Path) -> int:
    """A record's sequence number (-1 when its name carries none)."""
    tail = record.stem.rpartition("-")[2]
    return int(tail) if tail.isdigit() else -1


class SweepJournal:
    """A directory of per-outcome checkpoint records for sweep runs."""

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        #: files ignored by the last load(): (path, reason) pairs,
        #: reason in {"corrupt", "schema"} — the PlanStore convention.
        self.skipped_files: list[tuple[pathlib.Path, str]] = []
        #: the number the next record is named by.
        self._next_seq = 1 + max(
            map(_seq, self.path.glob(f"*{_SUFFIX}")), default=-1)

    # ------------------------------------------------------------------
    # writing (single orchestrator process)
    # ------------------------------------------------------------------

    def _write(self, prefix: str, payload: dict) -> pathlib.Path:
        """Land one immutable record atomically (temp + rename) under
        the next sequence number."""
        name = f"{prefix}{self._next_seq:05d}{_SUFFIX}"
        self._next_seq += 1
        target = self.path / name
        tmp = self.path / f".{name}.tmp"
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, target)
        return target

    def record(self, outcome: "SweepOutcome") -> pathlib.Path:
        """Checkpoint one completed scenario."""
        return self._write(_OUTCOME_PREFIX, {
            "schema": JOURNAL_SCHEMA_VERSION,
            "key": outcome.key,
            "row": outcome.row,
            "plan_cache": outcome.plan_cache.to_dict(),
            "layer_cache": outcome.layer_cache.to_dict(),
        })

    def record_failure(self, failure: SweepFailure) -> pathlib.Path:
        """Checkpoint one quarantined scenario (never replayed)."""
        return self._write(_FAILURE_PREFIX, {
            "schema": JOURNAL_SCHEMA_VERSION,
            "key": failure.key,
            "error": failure.error,
            "attempts": failure.attempts,
            "detail": failure.detail,
        })

    # ------------------------------------------------------------------
    # reading (resume / inspection)
    # ------------------------------------------------------------------

    def _records(self, prefix: str) -> list[pathlib.Path]:
        """The records named ``<prefix>*``, in sequence order."""
        return sorted(self.path.glob(f"{prefix}*{_SUFFIX}"),
                      key=lambda record: (_seq(record), record.name))

    def outcome_files(self) -> list[pathlib.Path]:
        """All outcome records currently journaled, in sequence order."""
        return self._records(_OUTCOME_PREFIX)

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

        Records load in sequence order, so of several valid records for
        one key the last one wins.  Corrupt, truncated, or stale-schema
        records, and records whose key, row or counters are damaged, are
        skipped (and listed in :attr:`skipped_files`), never fatal: a
        damaged journal degrades to re-pricing the affected scenarios.
        Keys this version does not write (an older journal's
        ``fingerprint`` and ``index``) are ignored.  Failure records are
        deliberately absent — resume re-attempts quarantined keys.
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
