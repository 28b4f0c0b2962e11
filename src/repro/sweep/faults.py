"""Deterministic fault injection for the sweep engine (dev/test only).

Fleet-scale execution meets partial failure as the *normal* case: a
worker OOMs mid-scenario, a shared plan-store shard is truncated by a dying
host, a scenario trips a transient I/O error.  Reproducing those faults
on demand is what makes the resilience layer testable — a flaky test
that kills a worker "sometimes" proves nothing.

A :class:`FaultPlan` is a reproducible failure script: *scenario N fails
on attempt K*, *the worker pricing scenario N dies on attempt K*, *the
N-th plan-store shard is corrupted before the run*.  Every fault is a
pure function of ``(scenario key, attempt number)``, so a plan replayed
against the same grid fires identically — in unit tests, in the CI
fault-injection smoke, and behind the dev-only ``--inject-faults`` CLI
flag.

Fault kinds:

``fail``
    raise :class:`InjectedFault` (a retryable
    :class:`~repro.sweep.resilience.TransientError`) before pricing.
``crash``
    kill the worker process the way a segfault/OOM would (``os._exit``,
    no cleanup) — the parent observes a ``BrokenProcessPool`` and must
    respawn and re-dispatch.
``corrupt-shard``
    truncate the N-th shard file of the attached plan store before the
    sweep starts, exercising the store's corrupt-shard tolerance and the
    ``store_skipped`` reporting path.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from .resilience import TransientError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from .scenario import Scenario

#: the injectable failure modes, in documentation order.
FAULT_KINDS = ("fail", "crash", "corrupt-shard")

#: exit status of a ``crash`` fault — distinctive in worker core dumps.
CRASH_EXIT_CODE = 86


class InjectedFault(TransientError):
    """The deterministic, *retryable* failure a ``fail`` fault raises."""


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault.

    ``target`` is a grid index (resolved to a scenario key via
    :meth:`FaultPlan.resolved` before shipping to workers) or an exact
    scenario key; for ``corrupt-shard`` it is the index into the store's
    sorted shard list.  ``attempts`` lists the attempt numbers on which
    a per-scenario fault fires — ``(1,)`` injects one transient failure,
    ``(1, 2, 3)`` makes the scenario a poison pill for the default 3
    attempts.
    """

    kind: str
    target: int | str
    attempts: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {', '.join(FAULT_KINDS)}")
        attempts = tuple(sorted(set(self.attempts)))
        if not attempts or any(not isinstance(a, int) or a < 1
                               for a in attempts):
            raise ValueError("attempts must be positive attempt numbers")
        object.__setattr__(self, "attempts", attempts)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered script of deterministic faults for one sweep run."""

    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a CLI fault script: ``;``-joined ``KIND:TARGET[@ATTEMPTS]``.

        ``TARGET`` is a grid index (shard index for ``corrupt-shard``);
        ``ATTEMPTS`` a ``,``-list of attempt numbers, default ``1``.
        Examples: ``fail:0`` (scenario 0 fails once), ``fail:2@1,2,3``
        (scenario 2 is a poison pill), ``crash:1`` (the worker pricing
        scenario 1 dies on attempt 1), ``corrupt-shard:0``.
        """
        specs = []
        for token in text.split(";"):
            token = token.strip()
            if not token:
                continue
            kind, sep, rest = token.partition(":")
            if not sep:
                raise ValueError(
                    f"fault token {token!r} is not KIND:TARGET[@ATTEMPTS]")
            target_text, attempt_sep, attempts_text = rest.partition("@")
            target_text = target_text.strip()
            if not target_text.isdigit():
                raise ValueError(
                    f"fault target {target_text!r} in {token!r} must be "
                    f"a grid index (shard index for corrupt-shard)")
            attempts: tuple[int, ...] = (1,)
            if attempt_sep:
                parts = [a.strip() for a in attempts_text.split(",")]
                if not all(p.isdigit() and int(p) >= 1 for p in parts):
                    raise ValueError(
                        f"fault attempts {attempts_text!r} in {token!r} "
                        f"must be positive attempt numbers")
                attempts = tuple(int(p) for p in parts)
            specs.append(FaultSpec(kind=kind, target=int(target_text),
                                   attempts=attempts))
        if not specs:
            raise ValueError(f"empty fault plan: {text!r}")
        return cls(specs=tuple(specs))

    def resolved(self, scenarios: Sequence["Scenario"]) -> "FaultPlan":
        """Resolve grid-index targets to scenario keys.

        Key-targeted and ``corrupt-shard`` specs pass through; an index
        outside the grid is an error (a silently dead fault would make a
        fault-injection test vacuous).
        """
        specs = []
        for spec in self.specs:
            if spec.kind == "corrupt-shard" or isinstance(spec.target, str):
                specs.append(spec)
                continue
            if not 0 <= spec.target < len(scenarios):
                raise ValueError(
                    f"fault target index {spec.target} outside the "
                    f"{len(scenarios)}-scenario grid")
            specs.append(replace(spec, target=scenarios[spec.target].key))
        return FaultPlan(specs=tuple(specs))

    # ------------------------------------------------------------------
    # per-scenario faults (fired inside workers)
    # ------------------------------------------------------------------

    def spec_for(self, key: str, attempt: int) -> FaultSpec | None:
        """The first per-scenario spec armed for ``(key, attempt)``."""
        for spec in self.specs:
            if (spec.kind != "corrupt-shard" and spec.target == key
                    and attempt in spec.attempts):
                return spec
        return None

    def fire(self, key: str, attempt: int) -> None:
        """Trigger the scripted fault for ``(key, attempt)``, if any.

        ``fail`` raises :class:`InjectedFault`; ``crash`` kills this
        process without cleanup, exactly like a segfault or the OOM
        killer.
        """
        spec = self.spec_for(key, attempt)
        if spec is None:
            return
        if spec.kind == "fail":
            raise InjectedFault(
                f"injected failure for {key} (attempt {attempt})")
        if spec.kind == "crash":
            os._exit(CRASH_EXIT_CODE)

    # ------------------------------------------------------------------
    # store faults (fired once, before the run)
    # ------------------------------------------------------------------

    def shard_targets(self) -> tuple[int, ...]:
        """Sorted shard indices the ``corrupt-shard`` specs name."""
        return tuple(sorted(spec.target for spec in self.specs
                            if spec.kind == "corrupt-shard"
                            and isinstance(spec.target, int)))

    def corrupt_store(self, store_path: str | pathlib.Path,
                      ) -> list[pathlib.Path]:
        """Truncate the targeted shards of a plan store (deterministic).

        Each targeted shard keeps its first half — guaranteed-invalid
        JSON — so ``PlanStore.load()`` must skip it (recording it in
        ``skipped_files``) and the sweep degrades to recomputing those
        plans.  Returns the shards actually corrupted; indices beyond
        the store are ignored (an empty store has nothing to corrupt).
        """
        from ..core.planstore import PlanStore
        shards = PlanStore(store_path).shard_files()
        corrupted = []
        for index in self.shard_targets():
            if 0 <= index < len(shards):
                shard = shards[index]
                shard.write_text(shard.read_text()[:shard.stat().st_size // 2])
                corrupted.append(shard)
        return corrupted
