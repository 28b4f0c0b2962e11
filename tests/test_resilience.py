"""Tests for fault-tolerant sweep execution (resilience, faults, journal).

The contract under test: every failure mode the resilience layer handles
— injected failures, worker crashes, corrupted shards, interrupted
runs — must leave the deterministic row payload untouched.
``rows_json()`` is compared byte-for-byte against an undisturbed serial
run throughout.
"""

import json
import time

import pytest

from repro.sweep import (
    CRASH_EXIT_CODE,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    Scenario,
    ScenarioSweep,
    SweepFailure,
    SweepJournal,
    SweepOutcome,
    SweepQuarantineError,
    TransientError,
    WorkerCrashError,
    error_class,
    scenario_grid,
)
from repro.sweep.resilience import RETRYABLE


#: fields older journals carry that this version neither writes nor
#: reads, each with a value of the kind those journals held.
RETIRED_FIELDS = {
    # the layer-cost memo's pre-seeding counter
    "layer_cache.seeded": 7,
    # the delta-sweep scenario fingerprint, a SHA-256 hex digest
    "fingerprint": "0f" * 32,
    # the grid index records were once named by
    "index": 3,
}


@pytest.fixture(scope="module")
def grid():
    return scenario_grid(tolerances=(1.0, 1.05), npus=(1, 2))


@pytest.fixture(scope="module")
def reference(grid):
    """The undisturbed serial run every fault scenario must reproduce."""
    return ScenarioSweep(list(grid)).run()


@pytest.fixture(scope="module")
def twin_grid():
    """Het(k) budget innermost: neighbours share one schedule."""
    return scenario_grid(tolerances=(1.0, 1.05), npus=(1, 2),
                         het_ws_budgets=(None, 2))


@pytest.fixture(scope="module")
def twin_reference(twin_grid):
    return ScenarioSweep(list(twin_grid)).run()


# ----------------------------------------------------------------------
# Retry policy: what retries, how often, and that it never waits
# ----------------------------------------------------------------------

class TestRetryPolicy:
    def test_retryable_classification(self):
        for error in (TransientError("x"), WorkerCrashError("x"),
                      InjectedFault("x"), OSError("x")):
            assert isinstance(error, RETRYABLE)
        assert not isinstance(ValueError("deterministic"), RETRYABLE)

    def test_validation(self, grid, capsys):
        with pytest.raises(ValueError, match="max_attempts must be >= 1"):
            ScenarioSweep(list(grid), max_attempts=0)
        from repro.cli import main
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--retries", "0"])
        assert exit_info.value.code == 2
        assert "max_attempts must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_retry_runs_at_once(self, grid, reference, monkeypatch,
                                  workers):
        # Nothing a sweep retries waits on an outside resource, so no
        # retry may sleep: two serial retries, or one on the pool.
        def no_wait(seconds):
            raise AssertionError(f"a retry waited {seconds} s")

        monkeypatch.setattr(time, "sleep", no_wait)
        script = "fail:0@1,2" if workers == 1 else "fail:3"
        result = ScenarioSweep(list(grid), workers=workers,
                               faults=FaultPlan.parse(script)).run()
        assert result.rows_json() == reference.rows_json()


class TestFailureRecords:
    def test_error_class_is_rule_stable(self):
        assert error_class(ValueError("path /tmp/x at 0x7f..")) \
            == "ValueError"
        assert error_class(InjectedFault("n")) == "InjectedFault"

    def test_manifest_excludes_the_free_text_detail(self):
        failure = SweepFailure(key="k", error="ValueError", attempts=2,
                               detail="message with /paths and counters")
        assert failure.to_manifest() == {"key": "k", "error": "ValueError",
                                         "attempts": 2}

    def test_quarantine_error_lists_every_key(self):
        exc = SweepQuarantineError([
            SweepFailure(key="a", error="InjectedFault", attempts=3),
            SweepFailure(key="b", error="ValueError", attempts=1),
        ])
        assert "a" in str(exc) and "b" in str(exc)
        assert "strict=False" in str(exc)


# ----------------------------------------------------------------------
# FaultPlan: the deterministic failure script
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_parse_round_trips_the_grammar(self):
        plan = FaultPlan.parse("fail:0; crash:1@2 ;fail:2@1,3;"
                               "corrupt-shard:0")
        kinds = [s.kind for s in plan.specs]
        assert kinds == ["fail", "crash", "fail", "corrupt-shard"]
        assert plan.specs[1].attempts == (2,)
        assert plan.specs[2].attempts == (1, 3)

    @pytest.mark.parametrize("text", [
        "", "fail", "fail:", "fail:x", "explode:0", "fail:0@", "fail:0@0",
        "hang:0",
    ])
    def test_parse_rejects_malformed_scripts(self, text):
        with pytest.raises(ValueError):
            FaultPlan.parse(text)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="nope", target=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="fail", target=0, attempts=())
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", target=0, attempts=(0,))

    def test_resolved_maps_indices_to_keys(self, grid):
        plan = FaultPlan.parse("fail:1").resolved(grid)
        assert plan.specs[0].target == grid[1].key
        assert plan.spec_for(grid[1].key, 1) is not None
        assert plan.spec_for(grid[1].key, 2) is None
        assert plan.spec_for(grid[0].key, 1) is None

    def test_resolved_rejects_out_of_grid_targets(self, grid):
        with pytest.raises(ValueError, match="outside"):
            FaultPlan.parse(f"fail:{len(grid)}").resolved(grid)

    def test_fire_raises_a_retryable_fault(self, grid):
        plan = FaultPlan.parse("fail:0").resolved(grid)
        with pytest.raises(InjectedFault):
            plan.fire(grid[0].key, 1)
        plan.fire(grid[0].key, 2)  # not armed for attempt 2
        assert issubclass(InjectedFault, TransientError)

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE == 86


# ----------------------------------------------------------------------
# Serial retries and quarantine
# ----------------------------------------------------------------------

@pytest.fixture
def attempts(monkeypatch):
    """Every ``(key, attempt)`` a serial sweep prices, in order."""
    from repro.sweep import runner
    seen: list[tuple[str, int]] = []
    run_one = runner._run_one

    def counting(scenario, **kwargs):
        seen.append((scenario.key, kwargs["attempt"]))
        return run_one(scenario, **kwargs)

    monkeypatch.setattr(runner, "_run_one", counting)
    return seen


class TestSerialRetries:
    def test_transient_failure_retries_to_identical_rows(self, grid,
                                                         reference,
                                                         attempts):
        result = ScenarioSweep(list(grid),
                               faults=FaultPlan.parse("fail:0")).run()
        assert result.rows_json() == reference.rows_json()
        assert result.complete
        # exactly one retry happened, before the next scenario
        assert attempts[:3] == [(grid[0].key, 1), (grid[0].key, 2),
                                (grid[1].key, 1)]

    def test_poison_scenario_quarantines_strict(self, grid):
        sweep = ScenarioSweep(list(grid),
                              faults=FaultPlan.parse("fail:1@1,2,3"))
        with pytest.raises(SweepQuarantineError) as err:
            sweep.run()
        assert [f.key for f in err.value.failures] == [grid[1].key]
        assert err.value.failures[0].attempts == 3

    def test_keep_going_returns_partial_with_manifest(self, grid,
                                                      reference):
        sweep = ScenarioSweep(list(grid),
                              faults=FaultPlan.parse("fail:1@1,2,3"),
                              strict=False)
        result = sweep.run()
        assert not result.complete
        assert len(result.rows) == len(grid) - 1
        assert result.failures_manifest() == [{
            "key": grid[1].key, "error": "InjectedFault", "attempts": 3}]
        assert result.summary()["failures"] == result.failures_manifest()
        # the surviving rows are the reference rows, minus the victim
        surviving = [r for r in reference.rows if r["key"] != grid[1].key]
        assert result.rows == surviving

    def test_failure_manifest_bytes_are_deterministic(self, grid):
        # The CLI's --json summary carries the manifest.
        def manifest():
            return json.dumps(ScenarioSweep(
                list(grid), faults=FaultPlan.parse("fail:0@1,2,3"),
                strict=False).run().summary()["failures"],
                sort_keys=True)
        assert manifest() == manifest()

    def test_deterministic_error_is_not_retried(self, attempts):
        # A het budget beyond the trunk quadrant capacity raises
        # ValueError at pricing time: re-running a pure function cannot
        # change the answer, so quarantine happens on attempt 1.
        bad = scenario_grid(tolerances=(1.0,), het_ws_budgets=(64,))
        result = ScenarioSweep(list(bad), strict=False).run()
        assert result.rows == []
        assert result.failures_manifest() == [{
            "key": bad[0].key, "error": "ValueError", "attempts": 1}]
        assert attempts == [(bad[0].key, 1)]

    def test_custom_attempt_budget_is_honored(self, grid, attempts):
        sweep = ScenarioSweep(list(grid), max_attempts=5,
                              faults=FaultPlan.parse("fail:0@1,2,3,4"))
        result = sweep.run()
        assert result.complete  # succeeded on the fifth attempt
        assert attempts[:6] == [(grid[0].key, a) for a in range(1, 6)] \
            + [(grid[1].key, 1)]


# ----------------------------------------------------------------------
# Journal: checkpoint and resume
# ----------------------------------------------------------------------

class TestJournal:
    def test_interrupted_run_resumes_byte_identical(self, grid, reference,
                                                    tmp_path):
        journal_dir = tmp_path / "journal"
        stream = ScenarioSweep(list(grid),
                               journal=journal_dir).run_iter()
        next(stream)
        next(stream)
        stream.close()  # the "crash": two outcomes checkpointed
        assert len(list(journal_dir.glob("outcome-*.json"))) == 2
        resumed = ScenarioSweep(list(grid),
                                journal=journal_dir).run()
        assert resumed.rows_json() == reference.rows_json()
        # resume completed the journal for the next resume
        assert len(list(journal_dir.glob("outcome-*.json"))) == len(grid)

    def test_resume_between_twins_is_byte_identical(self, twin_grid,
                                                    twin_reference,
                                                    tmp_path):
        # Interrupted after the first twin of the second pair: the resumed
        # run prices its twin without the schedule the first run shared.
        journal_dir = tmp_path / "journal"
        stream = ScenarioSweep(list(twin_grid),
                               journal=journal_dir).run_iter()
        for _ in range(3):
            next(stream)
        stream.close()
        resumed = ScenarioSweep(list(twin_grid),
                                journal=journal_dir).run()
        assert resumed.rows_json() == twin_reference.rows_json()

    def test_fully_journaled_grid_replays_without_pricing(self, grid,
                                                          reference,
                                                          tmp_path):
        journal_dir = tmp_path / "journal"
        ScenarioSweep(list(grid), journal=journal_dir).run()
        replayed = ScenarioSweep(list(grid),
                                 journal=journal_dir).run()
        assert replayed.rows_json() == reference.rows_json()

    @pytest.mark.parametrize("retired", sorted(RETIRED_FIELDS))
    def test_records_with_a_retired_counter_still_replay(self, grid,
                                                         reference,
                                                         tmp_path,
                                                         retired):
        journal_dir = tmp_path / "journal"
        ScenarioSweep(list(grid), journal=journal_dir).run()
        section, _, name = retired.rpartition(".")
        for record in journal_dir.glob("outcome-*.json"):
            payload = json.loads(record.read_text())
            target = payload[section] if section else payload
            target[name] = RETIRED_FIELDS[retired]
            record.write_text(json.dumps(payload, sort_keys=True))
        journal = SweepJournal(journal_dir)
        assert len(journal.load()) == len(grid)
        assert journal.skipped_files == []
        resumed = ScenarioSweep(list(grid),
                                journal=journal_dir).run()
        assert resumed.rows_json() == reference.rows_json()

    def test_corrupt_and_stale_records_degrade_to_repricing(
            self, grid, reference, tmp_path):
        journal_dir = tmp_path / "journal"
        ScenarioSweep(list(grid), journal=journal_dir).run()
        records = sorted(journal_dir.glob("outcome-*.json"))
        records[0].write_text("{ truncated")
        stale = json.loads(records[1].read_text())
        stale["schema"] = -1
        records[1].write_text(json.dumps(stale))
        damaged = json.loads(records[2].read_text())
        damaged["plan_cache"]["hits"] = None
        records[2].write_text(json.dumps(damaged))
        journal = SweepJournal(journal_dir)
        outcomes = journal.load()
        assert len(outcomes) == len(grid) - 3
        assert sorted(reason for _, reason in journal.skipped_files) \
            == ["corrupt", "corrupt", "schema"]
        resumed = ScenarioSweep(list(grid),
                                journal=journal_dir).run()
        assert resumed.rows_json() == reference.rows_json()

    @pytest.mark.parametrize("number", ["null", '"x"', "1e400"])
    def test_damaged_numbers_skip_as_corrupt(self, grid, tmp_path, number):
        # int() raises on each of these; the record is skipped, not the
        # whole load.
        journal_dir = tmp_path / "journal"
        ScenarioSweep(list(grid), journal=journal_dir,
                      faults=FaultPlan.parse("fail:0@1,2,3"),
                      strict=False).run()
        journal = SweepJournal(journal_dir)
        outcome_file = journal.outcome_files()[0]
        outcome = json.loads(outcome_file.read_text())
        outcome["layer_cache"]["misses"] = "NUMBER"
        outcome_file.write_text(
            json.dumps(outcome).replace('"NUMBER"', number))
        assert len(journal.load()) == len(grid) - 2
        assert journal.skipped_files == [(outcome_file, "corrupt")]

    def test_resume_reports_skipped_records(self, grid, reference,
                                            tmp_path):
        journal_dir = tmp_path / "journal"
        first = ScenarioSweep(list(grid), journal=journal_dir).run()
        assert first.journal_skipped == []
        assert "journal_skipped" not in first.summary()
        record = SweepJournal(journal_dir).outcome_files()[1]
        damaged = json.loads(record.read_text())
        damaged["plan_cache"]["hits"] = None
        record.write_text(json.dumps(damaged))
        resumed = ScenarioSweep(list(grid), journal=journal_dir).run()
        assert resumed.rows_json() == reference.rows_json()
        skipped = [{"file": record.name, "reason": "corrupt"}]
        assert resumed.journal_skipped == skipped
        assert resumed.summary()["journal_skipped"] == skipped

    def test_cli_reports_skipped_records(self, tmp_path, capsys):
        from repro.cli import main
        journal_dir = tmp_path / "journal"
        argv = ["sweep", "--tolerances", "1.0,1.05",
                "--journal", str(journal_dir)]
        assert main(argv) == 0
        record = SweepJournal(journal_dir).outcome_files()[0]
        record.write_text("{ truncated")
        capsys.readouterr()
        assert main(argv) == 0
        assert (f"journal: skipped 1 corrupt/stale record(s): "
                f"{record.name}") in capsys.readouterr().out

    def test_changed_grid_keeps_every_key(self, tmp_path, attempts):
        # Grid B reorders and extends grid A; journaling B's new outcome
        # must not overwrite a record of A's, so A then replays in full.
        journal_dir = tmp_path / "journal"
        grid_a = scenario_grid(tolerances=(1.0, 1.05))
        grid_b = scenario_grid(tolerances=(1.05, 1.02, 1.0))
        first = ScenarioSweep(grid_a, journal=journal_dir).run()
        ScenarioSweep(grid_b, journal=journal_dir).run()
        assert set(SweepJournal(journal_dir).load()) \
            == {s.key for s in grid_b}
        attempts.clear()
        again = ScenarioSweep(grid_a, journal=journal_dir).run()
        assert attempts == []
        assert again.rows_json() == first.rows_json()

    def test_journaling_adds_no_builds(self, twin_grid, tmp_path,
                                       monkeypatch):
        # A checkpoint writes the outcome and nothing more: a journaled
        # run builds each hardware exactly as often as a plain one.
        built: list[str] = []
        build = Scenario.build

        def counting(scenario, *args, **kwargs):
            built.append(scenario.key)
            return build(scenario, *args, **kwargs)

        monkeypatch.setattr(Scenario, "build", counting)
        ScenarioSweep(list(twin_grid)).run()
        plain = list(built)
        built.clear()
        ScenarioSweep(list(twin_grid), journal=tmp_path / "journal").run()
        assert built == plain
        assert len(plain) == len(twin_grid) // 2

    def test_failures_are_journaled_but_never_replayed(self, grid,
                                                       tmp_path):
        journal_dir = tmp_path / "journal"
        ScenarioSweep(list(grid), journal=journal_dir,
                      faults=FaultPlan.parse("fail:0@1,2,3"),
                      strict=False).run()
        journal = SweepJournal(journal_dir)
        failures = [json.loads(record.read_text())
                    for record in journal_dir.glob("failure-*.json")]
        assert [f["error"] for f in failures] == ["InjectedFault"]
        # the failed key is absent from the replay map, so a resumed run
        # re-attempts it from scratch (the fault may have been transient)
        assert grid[0].key not in journal.load()
        resumed = ScenarioSweep(list(grid),
                                journal=journal_dir).run()
        assert resumed.complete

    def test_round_trip_preserves_rows_and_stats(self, grid, tmp_path):
        journal_dir = tmp_path / "journal"
        sweep = ScenarioSweep(list(grid), journal=journal_dir)
        originals = {o.key: o for o in sweep.run_iter()}
        loaded = SweepJournal(journal_dir).load()
        assert set(loaded) == set(originals)
        for key, outcome in loaded.items():
            assert isinstance(outcome, SweepOutcome)
            assert outcome.row == originals[key].row
            assert outcome.plan_cache.to_dict() \
                == originals[key].plan_cache.to_dict()


# ----------------------------------------------------------------------
# Parallel recovery: crashes and in-worker retries
# ----------------------------------------------------------------------

class TestParallelRecovery:
    def test_worker_crash_recovers_byte_identical(self, grid, reference):
        result = ScenarioSweep(list(grid), workers=2,
                               faults=FaultPlan.parse("crash:1")).run()
        assert result.rows_json() == reference.rows_json()
        assert result.complete

    def test_worker_crash_amid_twin_chunks_recovers(self, twin_grid,
                                                    twin_reference):
        # crash:1 kills the worker pricing the first pair's second
        # twin; rows still match the serial run, where twins share one
        # schedule.
        result = ScenarioSweep(list(twin_grid), workers=2,
                               faults=FaultPlan.parse("crash:1")).run()
        assert result.rows_json() == twin_reference.rows_json()
        assert result.complete

    def test_crash_always_quarantines_as_worker_crash(self, grid):
        # A single-scenario grid keeps the test deterministic: nothing
        # else can be collaterally re-dispatched by the pool deaths.
        victim = [grid[0]]
        result = ScenarioSweep(victim, workers=2,
                               faults=FaultPlan.parse("crash:0@1,2,3"),
                               strict=False).run()
        assert result.rows == []
        assert result.failures_manifest() == [{
            "key": grid[0].key, "error": "WorkerCrashError",
            "attempts": 3}]

    def test_in_worker_transient_failure_retries(self, grid, reference):
        result = ScenarioSweep(list(grid), workers=2,
                               faults=FaultPlan.parse("fail:3")).run()
        assert result.rows_json() == reference.rows_json()

    def test_parallel_journal_matches_serial_journal_rows(self, grid,
                                                          tmp_path):
        serial_dir, parallel_dir = tmp_path / "s", tmp_path / "p"
        ScenarioSweep(list(grid), journal=serial_dir).run()
        ScenarioSweep(list(grid), workers=2, journal=parallel_dir,
                      faults=FaultPlan.parse("crash:1")).run()
        serial_rows = {k: o.row
                       for k, o in SweepJournal(serial_dir).load().items()}
        parallel_rows = {
            k: o.row for k, o in SweepJournal(parallel_dir).load().items()}
        assert serial_rows == parallel_rows


# ----------------------------------------------------------------------
# Corrupt plan-store shards surface in the result
# ----------------------------------------------------------------------

class TestCorruptShardDegradation:
    @staticmethod
    def _cold():
        # Cold caches so the warm-up run actually flushes shards: plans
        # already memoized in this process are never re-flushed.
        from repro.core import clear_plan_cache
        from repro.cost import clear_cache
        clear_cache()
        clear_plan_cache()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_corrupt_shard_is_survived_and_reported(self, grid, reference,
                                                    tmp_path, workers):
        # A serial run reports what its attach skipped; a pooled run's
        # parent loads the store once before dispatch, since the workers'
        # own loads cannot report back.
        store = tmp_path / "store"
        self._cold()
        ScenarioSweep(list(grid), store_path=store).run()
        self._cold()
        result = ScenarioSweep(list(grid), workers=workers,
                               store_path=store,
                               faults=FaultPlan.parse("corrupt-shard:0")).run()
        assert result.rows_json() == reference.rows_json()
        assert result.store_skipped
        assert result.store_skipped[0]["reason"] == "corrupt"
        assert result.summary()["store_skipped"] == result.store_skipped

    @pytest.mark.parametrize("workers", [1, 2])
    def test_replayed_run_reports_corrupt_shard(
            self, grid, reference, tmp_path, workers):
        # The store is loaded before journal replay, so a resume that
        # prices nothing still reports the shard its load skipped.
        from repro.core import PlanStore, get_plan_cache
        store, journal = tmp_path / "store", tmp_path / "journal"
        self._cold()
        ScenarioSweep(list(grid), store_path=store, journal=journal).run()
        shards = PlanStore(store).shard_files()
        self._cold()
        result = ScenarioSweep(list(grid), workers=workers,
                               store_path=store, journal=journal,
                               faults=FaultPlan.parse("corrupt-shard:0")).run()
        assert result.rows_json() == reference.rows_json()
        # nothing was priced again, so nothing was flushed
        assert PlanStore(store).shard_files() == shards
        assert result.store_skipped == [{"file": shards[0].name,
                                         "reason": "corrupt"}]
        assert get_plan_cache().store is None

    def test_healthy_store_reports_no_skips(self, grid, tmp_path):
        store = tmp_path / "store"
        result = ScenarioSweep(list(grid), store_path=store).run()
        assert result.store_skipped == []
        assert "store_skipped" not in result.summary()
