"""Tests for the scenario-sweep engine (grid, runner, determinism)."""

import dataclasses
import json
import multiprocessing

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.io import save_sweep
from repro.sweep import (
    WORKLOAD_VARIANTS,
    Scenario,
    ScenarioSweep,
    parse_axis,
    run_scenario,
    scenario_grid,
)


class TestScenario:
    def test_key_is_deterministic_and_unique_per_point(self):
        a = Scenario(tolerance=1.05, npus=2)
        b = Scenario(tolerance=1.05, npus=2)
        c = Scenario(tolerance=1.1, npus=2)
        assert a.key == b.key
        assert a.key != c.key

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(tolerance=0.9)
        with pytest.raises(ValueError):
            Scenario(npus=0)
        with pytest.raises(ValueError):
            Scenario(nop_gbps=-1.0)
        with pytest.raises(KeyError):
            Scenario(workload="no-such-variant")
        for field in ("tolerance", "nop_gbps", "frequency_ghz",
                      "dram_gbps"):
            with pytest.raises(ValueError, match=field):
                Scenario(**{field: float("nan")})

    def test_memoized_tokens_still_validate_each_scenario(self):
        # Topology and hetero tokens are parsed once per token string;
        # the npus check and every parse error still run per scenario.
        assert Scenario(topology="Torus-8X8").topology == "torus-8x8"
        assert Scenario(hetero="trunk:WS").hetero == "trunk:ws"
        for _ in range(2):
            with pytest.raises(ValueError,
                               match="'Torus-8X8' fixes an explicit grid"):
                Scenario(topology="Torus-8X8", npus=2)
            with pytest.raises(ValueError, match="unknown topology 'ring'"):
                Scenario(topology="ring")
            with pytest.raises(ValueError, match="unknown quadrant 'core'"):
                Scenario(hetero="core:ws")

    def test_grid_expansion_is_row_major_and_duplicate_free(self):
        grid = scenario_grid(tolerances=(1.0, 1.1), npus=(1, 2))
        assert len(grid) == 4
        assert grid[0].tolerance == 1.0 and grid[0].npus == 1
        assert grid[1].tolerance == 1.0 and grid[1].npus == 2
        assert len({s.key for s in grid}) == 4

    def test_all_workload_variants_build(self):
        for name in WORKLOAD_VARIANTS:
            assert Scenario(workload=name).workload == name

    def test_parse_axis(self):
        assert parse_axis("1.0,1.05") == [1.0, 1.05]
        assert parse_axis("none,50") == [None, 50.0]
        assert parse_axis("1,2", int) == [1, 2]
        with pytest.raises(ValueError):
            parse_axis("  ,")


class TestRunScenario:
    def test_row_carries_scenario_identity_and_metrics(self):
        row = run_scenario(Scenario())
        assert row["key"] == Scenario().key
        assert row["pipe_ms"] > 0
        assert row["e2e_ms"] > row["pipe_ms"]
        assert 0 < row["utilization"] < 1
        assert "trunk_edp_j_ms" not in row  # no het budget requested

    def test_het_budget_adds_trunk_dse_columns(self):
        row = run_scenario(Scenario(het_ws_budget=2))
        assert row["trunk_label"] == "Het(2)"
        assert row["trunk_edp_j_ms"] > 0
        assert isinstance(row["trunk_feasible"], bool)

    def test_trunk_columns_match_schedule_heterogeneous(self):
        # The sweep's trunk DSE must use the scenario's own constraint
        # and quadrant budget, exactly like the canonical hetero flow.
        from repro.core import schedule_heterogeneous
        row = run_scenario(Scenario(tolerance=1.0, het_ws_budget=2))
        het = schedule_heterogeneous(ws_chiplets=2, tolerance=1.0)
        assert row["trunk_edp_j_ms"] == pytest.approx(
            het.trunk_config.edp_j_ms)
        assert row["trunk_feasible"] == het.trunk_config.feasible

    def test_nop_bandwidth_axis_moves_nop_latency(self):
        slow = run_scenario(Scenario(nop_gbps=12.5))
        fast = run_scenario(Scenario(nop_gbps=200.0))
        assert slow["nop_latency_ms"] > fast["nop_latency_ms"]


class TestScenarioSweep:
    @pytest.fixture(scope="class")
    def grid(self):
        return scenario_grid(
            tolerances=(1.0, 1.05),
            npus=(1,),
            workloads=("default",),
            het_ws_budgets=(None, 2),
        )

    def test_validation(self, grid):
        with pytest.raises(ValueError):
            ScenarioSweep([])
        with pytest.raises(ValueError):
            ScenarioSweep(grid, workers=0)
        with pytest.raises(ValueError):
            ScenarioSweep([grid[0], grid[0]])

    def test_serial_and_parallel_rows_byte_identical(self, grid):
        serial = ScenarioSweep(grid, workers=1).run()
        parallel = ScenarioSweep(grid, workers=2).run()
        assert serial.rows_json() == parallel.rows_json()

    def test_rows_follow_grid_order(self, grid):
        result = ScenarioSweep(grid, workers=1).run()
        assert [r["key"] for r in result.rows] == [s.key for s in grid]

    def test_cache_stats_are_aggregated(self, grid):
        result = ScenarioSweep(grid, workers=1).run()
        stats = result.summary()["plan_cache"]
        assert stats["hits"] + stats["misses"] > 0
        # Repeated scenarios over one workload must mostly hit the cache.
        assert stats["hits"] > stats["misses"]

    def test_result_serializes_to_stable_json(self, grid, tmp_path):
        result = ScenarioSweep(grid, workers=1).run()
        out = tmp_path / "sweep.json"
        save_sweep(result, out)
        payload = json.loads(out.read_text())
        assert payload["summary"]["scenarios"] == len(grid)
        assert payload["rows"] == result.to_dict()["rows"]
        # sorted-key serialization is reproducible byte-for-byte
        save_sweep(result, tmp_path / "sweep2.json")
        assert out.read_text() == (tmp_path / "sweep2.json").read_text()

    def test_row_lookup_is_keyed(self, grid):
        result = ScenarioSweep(grid, workers=1).run()
        for s in grid:
            assert result.row(s.key)["key"] == s.key
        with pytest.raises(KeyError):
            result.row("no-such-key")

    def test_summary_surfaces_both_memo_layers(self, grid):
        # Cold caches so plan computation actually exercises evaluate().
        from repro.core import clear_plan_cache
        from repro.cost import clear_cache
        clear_cache()
        clear_plan_cache()
        result = ScenarioSweep(grid, workers=1).run()
        summary = result.summary()
        assert "store_hits" in summary["plan_cache"]
        layer = summary["layer_cost_cache"]
        assert layer["hits"] + layer["misses"] > 0
        assert layer["entries"] > 0

    def test_cold_sweeps_price_every_layer_cost_again(self, grid):
        # The layer-cost line counts both memos (named layers and row
        # bands by shape); the resets must empty both, or the second
        # "cold" sweep would be served bands from the first.
        from repro.core import clear_plan_cache
        from repro.cost import clear_cache, evaluate_shape

        def cold_sweep():
            clear_cache()
            clear_plan_cache()
            bands_before = evaluate_shape.cache_info().misses
            layer = ScenarioSweep(grid, workers=1).run().summary()[
                "layer_cost_cache"]
            return layer, evaluate_shape.cache_info().misses - bands_before

        first, first_bands = cold_sweep()
        second, second_bands = cold_sweep()
        assert first_bands > 0
        assert second_bands == first_bands
        assert second["misses"] == first["misses"]


class TestStreaming:
    @pytest.fixture(scope="class")
    def grid(self):
        return scenario_grid(tolerances=(1.0, 1.05, 1.1))

    def test_run_iter_yields_every_scenario(self, grid):
        sweep = ScenarioSweep(grid, workers=1)
        outcomes = list(sweep.run_iter())
        assert [o.key for o in outcomes] == [s.key for s in grid]

    def test_merged_stream_is_byte_identical_to_batch(self, grid):
        batch = ScenarioSweep(grid, workers=1).run()
        sweep = ScenarioSweep(grid, workers=2)
        streamed = sweep.merge(sweep.run_iter())
        assert streamed.rows_json() == batch.rows_json()

    def test_merge_rejects_missing_scenarios(self, grid):
        sweep = ScenarioSweep(grid, workers=1)
        outcomes = list(sweep.run_iter())[1:]
        with pytest.raises(RuntimeError):
            sweep.merge(outcomes)

    def test_chunked_dispatch_matches(self, grid):
        batch = ScenarioSweep(grid, workers=1).run()
        chunked = ScenarioSweep(grid, workers=2, chunksize=2).run()
        assert chunked.rows_json() == batch.rows_json()

    def test_merge_tolerates_byte_identical_duplicates(self, grid):
        # Retries and journal resume can legitimately price a scenario
        # twice; identical rows merge to one.
        sweep = ScenarioSweep(grid, workers=1)
        outcomes = list(sweep.run_iter())
        merged = sweep.merge(outcomes + [outcomes[0]])
        assert [r["key"] for r in merged.rows] == [s.key for s in grid]

    def test_merge_rejects_conflicting_duplicates(self, grid):
        import dataclasses
        sweep = ScenarioSweep(grid, workers=1)
        outcomes = list(sweep.run_iter())
        mutated = dataclasses.replace(
            outcomes[0], row={**outcomes[0].row, "pipe_ms": -1.0})
        with pytest.raises(RuntimeError, match="duplicate"):
            sweep.merge(outcomes + [mutated])


class TestStoreBackedSweep:
    @pytest.fixture(scope="class")
    def grid(self):
        return scenario_grid(tolerances=(1.0, 1.05),
                             het_ws_budgets=(None, 2))

    @staticmethod
    def _cold():
        from repro.core import clear_plan_cache
        from repro.cost import clear_cache
        clear_cache()
        clear_plan_cache()

    def test_second_run_is_served_from_disk(self, grid, tmp_path):
        store = tmp_path / "store"
        self._cold()
        first = ScenarioSweep(grid, workers=1, store_path=store).run()
        assert first.cache_stats.misses > 0
        self._cold()
        second = ScenarioSweep(grid, workers=1, store_path=store).run()
        assert second.cache_stats.misses == 0
        assert second.cache_stats.store_hits > 0
        assert second.rows_json() == first.rows_json()

    def test_parallel_workers_share_one_store(self, grid, tmp_path):
        store = tmp_path / "store"
        self._cold()
        first = ScenarioSweep(grid, workers=2, store_path=store).run()
        second = ScenarioSweep(grid, workers=2, store_path=store).run()
        assert second.cache_stats.misses == 0
        assert second.rows_json() == first.rows_json()

    @pytest.mark.parametrize("scheme", ["http", "https"])
    def test_url_store_path_fails_fast(self, grid, scheme):
        # Plan stores are directories; a URL would otherwise become a
        # local directory named "http:" once the sweep ran.
        with pytest.raises(ValueError, match="directories"):
            ScenarioSweep(grid, store_path=f"{scheme}://127.0.0.1:1")

    def test_disk_store_sweep_does_not_load_numpy(self, tmp_path):
        # A fresh interpreter: this test process may already hold them.
        # Besides numpy, a stored serial sweep loads neither the process
        # pool nor the journal, and none of the packages and modules that
        # only experiments, reports and the paper's side analyses run.
        import pathlib
        import subprocess
        import sys

        import repro
        unused = ["numpy", "multiprocessing", "concurrent.futures.process",
                  "repro.experiments", "repro.analysis", "repro.viz",
                  "repro.sim", "repro.io.report", "repro.core.hetero",
                  "repro.core.context", "repro.workloads.validate",
                  "repro.sweep.journal"]
        script = (
            "import json, sys\n"
            "import repro.design\n"
            "from repro.sweep.runner import ScenarioSweep\n"
            "from repro.sweep.scenario import scenario_grid\n"
            "grid = scenario_grid(tolerances=(1.0, 1.05))\n"
            "ScenarioSweep(grid, store_path=sys.argv[1]).run()\n"
            "print(json.dumps(sorted(sys.modules)))\n")
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            cwd=src, capture_output=True, text=True, timeout=120,
            check=True)
        loaded = set(json.loads(out.stdout.splitlines()[-1]))
        assert list(tmp_path.joinpath("store").iterdir()), \
            "the sweep wrote no plan-store shard"
        assert [name for name in unused if name in loaded] == []

    def test_serial_run_detaches_the_global_cache(self, grid, tmp_path):
        from repro.core import get_plan_cache
        self._cold()
        ScenarioSweep(grid[:1], workers=1,
                      store_path=tmp_path / "store").run()
        assert get_plan_cache().store is None

    def test_conflicting_store_attachment_is_rejected(self, grid,
                                                      tmp_path):
        from repro.core import PlanStore, get_plan_cache
        cache = get_plan_cache()
        cache.attach_store(PlanStore(tmp_path / "store-a"))
        try:
            sweep = ScenarioSweep(grid[:1], workers=1,
                                  store_path=tmp_path / "store-b")
            with pytest.raises(RuntimeError, match="already attached"):
                list(sweep.run_iter())
            # same directory is fine (idempotent attach, kept attached)
            ScenarioSweep(grid[:1], workers=1,
                          store_path=tmp_path / "store-a").run()
            assert cache.store is not None
        finally:
            cache.detach_store()

    def test_abandoned_parallel_stream_does_not_hang(self, grid):
        sweep = ScenarioSweep(grid, workers=2)
        stream = sweep.run_iter()
        first = next(stream)
        assert first.row["pipe_ms"] > 0
        stream.close()  # must cancel queued chunks, not run them all
        # the engine stays usable afterwards
        assert len(ScenarioSweep(grid[:1], workers=1).run().rows) == 1

    def test_abandoned_stream_leaves_flushed_plans_warm(self, grid,
                                                        tmp_path):
        # The cancel_futures contract: breaking out of run_iter mid-grid
        # drops queued chunks, but every *completed* scenario has already
        # flushed its plans — the store stays warm for the next run.
        from repro.core import PlanStore
        store = tmp_path / "store"
        self._cold()
        sweep = ScenarioSweep(grid, workers=2, store_path=store)
        stream = sweep.run_iter()
        first = next(stream)
        assert first.row["pipe_ms"] > 0
        stream.close()
        assert PlanStore(store).load(), "no plans flushed before abandon"
        self._cold()
        warm = ScenarioSweep(grid, workers=1, store_path=store).run()
        assert warm.cache_stats.store_hits > 0


class TestWorkloadSharing:
    """A run builds each distinct workload once and shares the object."""

    @pytest.fixture(scope="class")
    def grid(self):
        # grid order alternates variants, so each 3-scenario chunk of a
        # pooled run repeats one
        return scenario_grid(tolerances=(1.0, 1.05, 1.1),
                             workloads=("default", "lores"))

    @staticmethod
    def _on_build(monkeypatch, record):
        import repro.sweep.scenario as scenario_module
        build = scenario_module.build_perception_workload

        def recording(*args, **kwargs):
            workload = build(*args, **kwargs)
            record(workload)
            return workload

        monkeypatch.setattr(scenario_module, "build_perception_workload",
                            recording)

    @staticmethod
    def _cold():
        from repro.core import clear_plan_cache
        from repro.cost import clear_cache
        clear_cache()
        clear_plan_cache()

    def test_serial_sweep_builds_each_variant_once(self, grid, monkeypatch):
        built = []
        self._on_build(monkeypatch, built.append)
        for _ in range(2):
            self._cold()
            built.clear()
            ScenarioSweep(grid, workers=1).run()
            assert len(built) == len({s.workload for s in grid}) == 2

    def test_lone_run_scenario_builds_its_own_workload(self, monkeypatch):
        built = []
        self._on_build(monkeypatch, built.append)
        run_scenario(Scenario(tolerance=1.0))
        run_scenario(Scenario(tolerance=1.0))
        assert len(built) == 2

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the build wrapper only when "
                               "forked")
    def test_pooled_chunks_build_each_variant_once(self, grid, monkeypatch,
                                                  tmp_path):
        # Forked workers inherit the wrapper; each build appends a line.
        log = tmp_path / "builds.log"

        def record(_workload):
            with open(log, "a") as handle:
                handle.write("build\n")

        self._on_build(monkeypatch, record)
        serial = ScenarioSweep(grid, workers=1).run()
        log.unlink()
        chunksize = 3
        pooled = ScenarioSweep(grid, workers=2, chunksize=chunksize).run()
        chunks = [grid[i:i + chunksize]
                  for i in range(0, len(grid), chunksize)]
        bound = sum(len({s.workload for s in chunk}) for chunk in chunks)
        assert bound < len(grid)
        assert 0 < len(log.read_text().splitlines()) <= bound
        assert pooled.rows_json() == serial.rows_json()

    def test_sweep_never_mutates_a_shared_workload(self, monkeypatch):
        # Stands in for freezing Stage and PerceptionWorkload: the
        # matcher, Schedule and the trunk DSE only read a workload, so
        # its serialization after a sweep is the one it was built with.
        from repro.io.serialize import workload_to_dict

        def snapshot(workload):
            return json.dumps(workload_to_dict(workload), sort_keys=True)

        built = []
        self._on_build(monkeypatch,
                       lambda wl: built.append((wl, snapshot(wl))))
        grid = scenario_grid(tolerances=(1.0, 1.05),
                             workloads=("default", "lores"),
                             het_ws_budgets=(None, 2),
                             topologies=(None, "torus"))
        self._cold()
        ScenarioSweep(grid, workers=1).run()
        assert len(built) == 2
        for workload, before in built:
            assert snapshot(workload) == before


#: Het(k) twins (scenarios that differ only in ``het_ws_budget``) crossed
#: with every axis that gates a row column or reaches placement.
TWIN_GRID = scenario_grid(nop_gbps=(None, 25.0, 50.0),
                          het_ws_budgets=(None, 2),
                          dram_gbps=(None, 6.0),
                          topologies=(None, "mesh", "torus", "torus-8x8"),
                          heteros=(None, "trunk:ws"))


class TestScheduleSharing:
    """A run schedules each distinct hardware once and allocates each
    distinct allocation input once."""

    @staticmethod
    def _count(monkeypatch) -> tuple[list, list]:
        from repro.core.throughput import ThroughputMatcher
        builds: list = []
        allocations: list = []
        build = Scenario.build
        allocate = ThroughputMatcher._allocate

        def counting_build(self, *args, **kwargs):
            builds.append(self.key)
            return build(self, *args, **kwargs)

        def counting_allocate(self, *args, **kwargs):
            allocations.append(self.tolerance)
            return allocate(self, *args, **kwargs)

        monkeypatch.setattr(Scenario, "build", counting_build)
        monkeypatch.setattr(ThroughputMatcher, "_allocate",
                            counting_allocate)
        return builds, allocations

    def test_serial_rows_equal_lone_run_scenario_rows(self):
        assert len(TWIN_GRID) == 96
        rows = ScenarioSweep(TWIN_GRID, workers=1).run().rows
        lone = [run_scenario(s) for s in TWIN_GRID]
        # Unsorted dumps lock the key order as well as the bytes.
        assert json.dumps(rows) == json.dumps(lone)

    def test_serial_sweep_schedules_each_hardware_once(self, monkeypatch):
        grid = scenario_grid(workloads=("default", "lores"),
                             het_ws_budgets=(None, 2),
                             topologies=(None, "torus"))
        builds, allocations = self._count(monkeypatch)
        ScenarioSweep(grid, workers=1).run()
        # One build per workload x topology; the topology reaches only
        # placement, so one allocation per workload.
        assert len(builds) == 4
        assert len(allocations) == 2

    def test_perfbench_grid_builds_each_package_once(self, monkeypatch):
        # perfbench's seed-0 sweep grid: 192 scenarios on 96 hardware
        # points, over 12 distinct packages (npus x dataflow x topology).
        # A cold serial run builds each once and hands it to every
        # scenario of its package key; nothing downstream mutates it, so
        # each still equals a fresh build afterwards.
        import repro.sweep.scenario as scenario_module
        grid = scenario_grid(workloads=tuple(WORKLOAD_VARIANTS),
                             npus=(1, 2, 4), dataflows=(None, "ws"),
                             topologies=(None, "torus"),
                             het_ws_budgets=(None, 4))
        simba_package = scenario_module.simba_package
        package = Scenario.package
        built: list = []

        def counting_simba_package(*args, **kwargs):
            built.append(simba_package(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(scenario_module, "simba_package",
                            counting_simba_package)
        TestWorkloadSharing._cold()
        ScenarioSweep(grid, workers=1).run()
        assert len(grid) == 192
        assert len(built) == len({s.package_key() for s in grid}) == 12
        monkeypatch.undo()
        fresh = [package(s) for s in {s.package_key(): s
                                      for s in grid}.values()]
        assert built == fresh

    def test_lone_run_scenario_schedules_its_own(self, monkeypatch):
        builds, allocations = self._count(monkeypatch)
        run_scenario(Scenario())
        run_scenario(Scenario(het_ws_budget=2))
        assert len(builds) == len(allocations) == 2

    @pytest.mark.parametrize("scenario", [
        Scenario(het_ws_budget=2),
        Scenario(tolerance=1.2, nop_gbps=25.0, npus=2, workload="lores",
                 het_ws_budget=4, dataflow="ws", frequency_ghz=1.5,
                 native_tile=(8, 8), dram_gbps=6.0, topology="torus",
                 hetero="trunk:ws@1.2+temporal:@1.5"),
        Scenario(het_ws_budget=0, topology="mesh-8x8",
                 hetero="trunk:ws"),
    ], ids=lambda s: s.key)
    def test_build_ignores_the_het_budget(self, scenario):
        # The schedule table keys by the scenario without its budget, so
        # a build that read the budget would serve a twin the wrong row.
        from repro.io.serialize import workload_to_dict
        built = scenario.build()
        bare = dataclasses.replace(scenario, het_ws_budget=None).build()
        assert built.package == bare.package
        assert built.dram == bare.dram
        assert built.dram_bytes_per_frame == bare.dram_bytes_per_frame
        assert json.dumps(workload_to_dict(built.workload),
                          sort_keys=True) \
            == json.dumps(workload_to_dict(bare.workload), sort_keys=True)

    def test_twin_rows_share_no_mutable_value(self):
        grid = scenario_grid(het_ws_budgets=(None, 2),
                             heteros=(None, "trunk:ws"))
        rows = ScenarioSweep(grid, workers=1).run().rows
        bare, budgeted = (row for row in rows if "hetero" in row)
        assert bare["stage_utilization"] == budgeted["stage_utilization"]
        assert bare["stage_utilization"] is not budgeted["stage_utilization"]
        mutable = [id(v) for row in rows for v in row.values()
                   if isinstance(v, (dict, list))]
        assert len(mutable) == len(set(mutable)) > 0


#: small value pools over every scenario axis.  Between some two values
#: of a pool, each field of each sharing key changes a row: the workload
#: variants differ in input size, camera count, queue depth and lane
#: context; a Het(9) budget fills the default trunk quadrant but not a
#: larger one; the lores variant's trunk DSE turns feasible at
#: tolerance 1.5; and the ``trunk:`` tokens change the trunk quadrant's
#: engine, clock or tile without moving the base latency.
SHARING_POOLS = {
    "tolerance": (1.0, 1.5),
    "nop_gbps": (None, 25.0),
    "npus": (1, 2),
    "workload": ("default", "lores", "quad-camera", "shallow-queue",
                 "full-context"),
    "het_ws_budget": (None, 2, 9),
    "dataflow": (None, "ws"),
    "frequency_ghz": (None, 1.0),
    "native_tile": (None, (8, 8)),
    "dram_gbps": (None, 6.0),
    "topology": (None, "torus", "mesh-8x6"),
    "hetero": (None, "trunk:ws", "trunk:@1", "trunk:/8x8",
               "temporal:@1.5+fe:/8x8"),
}


@st.composite
def sharing_grids(draw):
    """A scenario and up to seven neighbours, each differing from it in
    one axis: the pairs a key that drops that axis would wrongly share."""
    base = {axis: draw(st.sampled_from(pool))
            for axis, pool in SHARING_POOLS.items()}
    points = [base]
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        axis = draw(st.sampled_from(sorted(SHARING_POOLS)))
        other = [v for v in SHARING_POOLS[axis] if v != base[axis]]
        points.append({**base, axis: draw(st.sampled_from(other))})
    grid: dict[str, Scenario] = {}
    for point in points:
        # An explicit KIND-WxH grid fixes the package size on its own.
        if point["topology"] is not None and "-" in point["topology"]:
            point = {**point, "npus": 1}
        scenario = Scenario(**point)
        grid.setdefault(scenario.key, scenario)
    return list(grid.values())


class TestSharingKeys:
    """Every sharing key keeps every axis its consumer reads.

    A sweep shares plans and ``GroupCosts`` through the process-wide
    plan cache, and workloads, allocations, schedules and trunk-DSE
    results through its ``RunTables``.  A lone cold ``run_scenario``
    call shares nothing with another scenario, so a key that drops an
    axis it needs makes some sweep row differ from the lone one.
    """

    @staticmethod
    def _cold():
        from repro.core import clear_plan_cache
        from repro.cost import clear_cache
        clear_cache()
        clear_plan_cache()

    def test_pools_cover_every_axis(self):
        from repro.sweep import AXIS_SPECS
        assert set(SHARING_POOLS) == set(AXIS_SPECS)

    @settings(max_examples=7, deadline=None, derandomize=True)
    @given(grid=sharing_grids())
    # Two grids of pairs that seven random grids seldom hold.  In the
    # first, each workload variant differs from the default one in one
    # config field, and the base latency of all but lores is the
    # default's, so their trunk DSEs differ in the workload alone.
    @example(grid=[Scenario(workload=name, het_ws_budget=2)
                   for name in ("default", "lores", "quad-camera",
                                "shallow-queue", "full-context")])
    # In the second, the next four scenarios each differ from the first
    # in one field of the trunk key: the constraint (by the tolerance),
    # the budget, the clock or the tile.  The sixth differs from the
    # third in the trunk quadrant's capacity alone (a full quadrant
    # reads "WS"), and the last from the first in the DRAM budget.
    @example(grid=[
        Scenario(tolerance=1.0, workload="lores", het_ws_budget=2),
        Scenario(tolerance=1.5, workload="lores", het_ws_budget=2),
        Scenario(tolerance=1.0, workload="lores", het_ws_budget=9),
        Scenario(tolerance=1.0, workload="lores", het_ws_budget=2,
                 hetero="trunk:@1"),
        Scenario(tolerance=1.0, workload="lores", het_ws_budget=2,
                 hetero="trunk:/8x8"),
        Scenario(tolerance=1.0, workload="lores", het_ws_budget=9, npus=2),
        Scenario(tolerance=1.0, workload="lores", het_ws_budget=2,
                 dram_gbps=6.0),
    ])
    def test_sweep_rows_equal_cold_lone_rows(self, grid):
        self._cold()
        swept = ScenarioSweep(grid).run().rows_json()
        lone = []
        for scenario in grid:
            self._cold()
            lone.append(run_scenario(scenario))
        assert swept == json.dumps({"rows": lone}, sort_keys=True, indent=2)
