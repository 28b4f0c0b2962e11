"""Tests for the hardware-aware scenario axes (PR 3).

Covers the four new axes (dataflow, frequency_ghz, native_tile,
dram_gbps), the Scenario.build() materialization path, key byte-stability
against a frozen PR 2 fixture, the uniform CLI axis parsing, and
PlanStore/PlanCache keying across the new axes.
"""

import json
import pathlib

import pytest

from repro.arch import DramBudget, NoPConfig, simba_package, \
    workload_dram_bytes
from repro.cost import nvdla_chiplet, simba_chiplet
from repro.sweep import (
    AXIS_SPECS,
    RunTables,
    Scenario,
    ScenarioSweep,
    parse_axis,
    parse_grid_axes,
    parse_tile,
    run_scenario,
    scenario_grid,
)

FIXTURE = pathlib.Path(__file__).parent / "data" / "frozen_scenario_keys.json"
HETERO_FIXTURE = (pathlib.Path(__file__).parent / "data"
                  / "frozen_hetero_axis.json")

#: one non-default value per axis, as CLI text.
NON_DEFAULT = {
    "tolerance": "1.2",
    "nop_gbps": "25",
    "npus": "2",
    "workload": "hires",
    "het_ws_budget": "2",
    "dataflow": "ws",
    "frequency_ghz": "1.5",
    "native_tile": "8x8",
    "dram_gbps": "6",
    "topology": "torus",
    "hetero": "trunk:ws",
}


class TestKeyByteStability:
    def test_keys_match_frozen_pr2_fixture(self):
        payload = json.loads(FIXTURE.read_text())
        g = payload["grid"]
        grid = scenario_grid(
            tolerances=tuple(g["tolerances"]),
            nop_gbps=tuple(g["nop_gbps"]),
            npus=tuple(g["npus"]),
            workloads=tuple(g["workloads"]),
            het_ws_budgets=tuple(g["het_ws_budgets"]),
        )
        assert [s.key for s in grid] == payload["keys"]

    def test_new_axes_absent_from_default_key(self):
        key = Scenario().key
        for fragment in ("df=", "ghz=", "tile=", "dram="):
            assert fragment not in key

    def test_new_axes_appear_only_when_set(self):
        s = Scenario(dataflow="ws", frequency_ghz=1.5,
                     native_tile=(8, 8), dram_gbps=6.0)
        assert s.key.endswith("df=ws|ghz=1.5|tile=8x8|dram=6")
        # and the base prefix is the unchanged PR 2 key
        assert s.key.startswith(Scenario().key)

    def test_to_dict_is_byte_stable_at_defaults(self):
        assert set(Scenario().to_dict()) == {
            "tolerance", "nop_gbps", "npus", "workload", "het_ws_budget"}
        d = Scenario(dram_gbps=6.0, dataflow="os").to_dict()
        assert d["dram_gbps"] == 6.0
        assert d["dataflow"] == "os"
        assert "frequency_ghz" not in d

    def test_grid_defaults_expand_exactly_like_pr2(self):
        old_style = scenario_grid(tolerances=(1.0, 1.05), npus=(1, 2))
        assert len(old_style) == 4
        assert all(s.dataflow is None and s.dram_gbps is None
                   for s in old_style)


class TestScenarioValidation:
    def test_bad_axis_values_rejected(self):
        with pytest.raises(ValueError, match="dataflow"):
            Scenario(dataflow="systolic")
        with pytest.raises(ValueError, match="frequency_ghz"):
            Scenario(frequency_ghz=0.0)
        with pytest.raises(ValueError, match="native_tile"):
            Scenario(native_tile=(16,))
        with pytest.raises(ValueError, match="native_tile"):
            Scenario(native_tile=(16, 0))
        with pytest.raises(ValueError, match="dram_gbps"):
            Scenario(dram_gbps=-1.0)
        # NaN compares false both ways, so it must fail the checks too
        nan = float("nan")
        with pytest.raises(ValueError, match="tolerance"):
            Scenario(tolerance=nan)
        with pytest.raises(ValueError, match="nop_gbps"):
            Scenario(nop_gbps=nan)
        with pytest.raises(ValueError, match="frequency_ghz"):
            Scenario(frequency_ghz=nan)
        with pytest.raises(ValueError, match="dram_gbps"):
            Scenario(dram_gbps=nan)
        with pytest.raises(ValueError, match="quadrant frequency_ghz"):
            Scenario(hetero="trunk:ws@nan")

    def test_native_tile_list_normalized_to_tuple(self):
        s = Scenario(native_tile=[8, 8])
        assert s.native_tile == (8, 8)
        assert hash(s)  # stays hashable after normalization

    def test_oversized_tile_fails_at_build(self):
        # 32x32 = 1024 PEs exceeds the 256-PE chiplet: the accelerator
        # config itself rejects the combination.
        with pytest.raises(ValueError, match="native"):
            Scenario(native_tile=(32, 32)).build()


class TestScenarioBuild:
    def test_default_build_matches_hand_rolled_package(self):
        built = Scenario(npus=2, nop_gbps=50.0).build()
        hand = simba_package(
            npus=2, nop=NoPConfig(bandwidth_bytes_per_s=50.0e9))
        assert built.package.name == hand.name
        assert built.package.nop == hand.nop
        assert built.package.engines == hand.engines
        assert built.package.grid is hand.grid
        assert built.dram is None
        assert built.dram_bytes_per_frame == 0
        # the package-only accessor produces the same hardware
        solo = Scenario(npus=2, nop_gbps=50.0).package()
        assert solo.name == hand.name and solo.nop == hand.nop

    def test_axes_reach_the_package(self):
        built = Scenario(dataflow="ws", frequency_ghz=1.0,
                         native_tile=(8, 8)).build()
        accel = built.accel
        assert accel.dataflow == "ws"
        assert accel.frequency_hz == 1.0e9
        assert accel.native_tile == (8, 8)
        assert all(built.package.engine(c.quadrant) == accel
                   for c in built.package.chiplets)

    def test_explicit_default_override_is_identical_hardware(self):
        # frequency_ghz=2.0 spells out the preset: same accel object
        # content, so plans (and store entries) are shared with defaults.
        assert Scenario(frequency_ghz=2.0).accel() == Scenario().accel()
        assert Scenario(dataflow="os").accel() == Scenario().accel()

    def test_dram_budget_materializes(self):
        built = Scenario(dram_gbps=6.0).build()
        assert built.dram == DramBudget(bandwidth_bytes_per_s=6.0e9)
        assert built.dram_bytes_per_frame == workload_dram_bytes(
            built.workload, built.config)

    def test_build_schedule_carries_dram(self):
        schedule = Scenario(dram_gbps=2.0).build().schedule()
        assert schedule.dram is not None
        assert schedule.dram_throttled
        assert schedule.pipe_latency_s == schedule.dram_time_s
        assert schedule.pipe_latency_s > schedule.compute_pipe_latency_s


class TestHardwareAxisRows:
    def test_dataflow_axis_moves_latency(self):
        os_row = run_scenario(Scenario())
        ws_row = run_scenario(Scenario(dataflow="ws"))
        assert ws_row["pipe_ms"] > os_row["pipe_ms"]
        assert "dataflow" not in os_row and ws_row["dataflow"] == "ws"

    def test_frequency_axis_scales_latency(self):
        # Halving the clock roughly doubles compute time; the exact
        # factor moves because scheduling thresholds (colocation, NoP
        # balance) are absolute-time quantities.
        full = run_scenario(Scenario())
        half = run_scenario(Scenario(frequency_ghz=1.0))
        assert 1.8 * full["pipe_ms"] < half["pipe_ms"] < 3.0 * full["pipe_ms"]

    def test_dram_axis_adds_columns_and_throttles(self):
        row = run_scenario(Scenario(dram_gbps=2.0))
        assert row["dram_throttled"] is True
        assert row["pipe_ms"] == pytest.approx(row["dram_ms"])
        assert row["pipe_ms"] > row["compute_pipe_ms"]
        assert row["dram_bw_util"] == pytest.approx(1.0)
        # steady-state fps below the compute-only fps: the DRAM wall
        assert 1e3 / row["pipe_ms"] < 1e3 / row["compute_pipe_ms"]
        unthrottled = run_scenario(Scenario(dram_gbps=200.0))
        assert unthrottled["dram_throttled"] is False
        assert unthrottled["pipe_ms"] == pytest.approx(
            unthrottled["compute_pipe_ms"])

    def test_default_rows_have_no_dram_columns(self):
        row = run_scenario(Scenario())
        for col in ("dram_ms", "dram_throttled", "compute_pipe_ms"):
            assert col not in row

    def test_trunk_memo_distinguishes_frequency(self):
        # One RunTables, so every scenario reaches the trunk table's key.
        # A trunk-only clock override leaves the base latency, and with
        # it the constraint and quadrant budget, as they are: only the
        # trunk clock tells that key from the default one.
        tables = RunTables()
        fast = run_scenario(Scenario(het_ws_budget=2), tables)
        slow = run_scenario(Scenario(het_ws_budget=2, frequency_ghz=1.0),
                            tables)
        slow_trunk = run_scenario(
            Scenario(het_ws_budget=2, hetero="trunk:@1.0"), tables)
        assert slow_trunk["base_ms"] == fast["base_ms"]
        assert slow["trunk_pipe_ms"] != fast["trunk_pipe_ms"]
        assert slow_trunk["trunk_pipe_ms"] != fast["trunk_pipe_ms"]


class TestAxisParsing:
    def test_parse_tile(self):
        assert parse_tile("16x16") == (16, 16)
        assert parse_tile("8X4") == (8, 4)
        with pytest.raises(ValueError):
            parse_tile("16*16")
        with pytest.raises(ValueError):
            parse_tile("16x")

    def test_parse_axis_names_the_offending_axis(self):
        with pytest.raises(ValueError, match=r"'16\*16' for axis "
                                             r"'native_tile'"):
            parse_axis("16x16,16*16", parse_tile, axis="native_tile")
        with pytest.raises(ValueError, match="'abc' for axis 'tolerance'"):
            parse_axis("1.0,abc", float, axis="tolerance")

    def test_none_sentinel_uniform_across_casts(self):
        assert parse_axis("none,16x8", parse_tile) == [None, (16, 8)]
        assert parse_axis("NONE,ws", str) == [None, "ws"]
        assert parse_axis("none,2", int) == [None, 2]

    def test_parse_grid_axes_round_trips_every_axis(self):
        kwargs = parse_grid_axes({
            "tolerance": "1.0,1.05",
            "nop_gbps": "none,25",
            "npus": "1,2",
            "workload": "default",
            "het_ws_budget": "none,2",
            "dataflow": "none,ws",
            "frequency_ghz": "none,1.5",
            "native_tile": "none,8x8",
            "dram_gbps": "none,6",
        })
        grid = scenario_grid(**kwargs)
        assert len(grid) == 2 * 2 * 2 * 1 * 2 * 2 * 2 * 2 * 2
        assert len({s.key for s in grid}) == len(grid)

    def test_parse_grid_axes_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown sweep axis 'pes'"):
            parse_grid_axes({"pes": "1,2"})

    def test_parse_grid_axes_rejects_none_without_sentinel(self):
        with pytest.raises(ValueError, match="'none' for axis 'npus'"):
            parse_grid_axes({"npus": "none,2"})

    def test_axis_specs_cover_every_scenario_axis(self):
        import dataclasses
        fields = {f.name for f in dataclasses.fields(Scenario)}
        assert set(AXIS_SPECS) == fields

    @pytest.mark.parametrize("axis", sorted(AXIS_SPECS))
    def test_every_axis_reaches_key_and_row(self, axis):
        # A set axis must change the merge key and land in the row;
        # a new axis needs a NON_DEFAULT value before this passes.
        [value] = parse_axis(NON_DEFAULT[axis], AXIS_SPECS[axis].cast,
                             axis=axis)
        scenario, default = Scenario(**{axis: value}), Scenario()
        assert scenario.key != default.key
        assert scenario.to_dict()[axis] != default.to_dict().get(axis)


class TestHeteroAxis:
    """The per-quadrant hetero axis (frozen-key regression + behavior)."""

    def test_unset_hetero_is_byte_identical_to_frozen_fixture(self):
        # With hetero unset, the scenario key, the full row payload, and
        # the plan-store content hashes must match the committed PR 4
        # fixture byte for byte.
        fixture = json.loads(HETERO_FIXTURE.read_text())
        scenario = Scenario(tolerance=1.0)
        assert scenario.key == fixture["scenario_key"]
        row = run_scenario(scenario)
        assert json.dumps(row, sort_keys=True) == \
            json.dumps(fixture["row"], sort_keys=True)

        from repro.core.plancache import MODE_BEST
        from repro.core.planstore import plan_key_hash
        from repro.cost import simba_chiplet
        from repro.workloads import build_perception_workload
        wl = build_perception_workload()
        accel = simba_chiplet("os")
        for label, frozen in fixture["plan_key_hashes"].items():
            name, n = label.split("@")
            assert plan_key_hash(wl.find_group(name), int(n), accel,
                                 MODE_BEST) == frozen

    def test_override_changes_the_plan_key_exactly_with_the_accel(self):
        # Plans key by the chiplet's own accelerator config, nothing
        # else about the package: a quadrant an override leaves as it
        # is keeps the frozen homogeneous hash.
        from repro.core.plancache import MODE_BEST
        from repro.core.planstore import plan_key_hash
        from repro.workloads import build_perception_workload
        fixture = json.loads(HETERO_FIXTURE.read_text())
        group = build_perception_workload().find_group("S_FFN")
        base_hash = fixture["plan_key_hashes"]["S_FFN@2"]
        homogeneous = Scenario().package()
        assert set(homogeneous.engines) == {simba_chiplet("os")}
        changed = set()
        for hetero in ("trunk:ws", "trunk:os@2", "fe:/8x8",
                       "spatial:ws@1.2+temporal:@1.5"):
            package = Scenario(hetero=hetero).package()
            for chiplet in package.chiplets:
                accel = package.engine(chiplet.quadrant)
                moved = accel != homogeneous.engine(chiplet.quadrant)
                changed.add(moved)
                assert (plan_key_hash(group, 2, accel, MODE_BEST)
                        != base_hash) == moved, (hetero, chiplet)
        assert changed == {True, False}

    def test_hetero_absent_from_default_key_and_row(self):
        assert "hetero" not in Scenario().key
        assert "hetero" not in run_scenario(Scenario(tolerance=1.0))

    def test_hetero_key_fragment_and_canonicalization(self):
        s = Scenario(hetero="trunk:WS@1.20 + fe:os")
        assert s.hetero == "fe:os+trunk:ws@1.2"
        assert s.key.endswith("|hetero=fe:os+trunk:ws@1.2")
        assert s.key.startswith(Scenario().key)
        assert s.to_dict()["hetero"] == "fe:os+trunk:ws@1.2"

    def test_bad_hetero_token_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown dataflow"):
            Scenario(hetero="trunk:xx")
        with pytest.raises(ValueError, match="unknown quadrant"):
            Scenario(hetero="bogus:ws")

    def test_build_materializes_the_mixed_package(self):
        built = Scenario(hetero="trunk:ws@1.2",
                         frequency_ghz=1.0).build()
        trunk = built.package.engine(3)
        assert trunk.dataflow == "ws" and trunk.frequency_hz == 1.2e9
        # the quadrant override layers on the package-wide axis
        fe = built.package.engine(0)
        assert fe.dataflow == "os" and fe.frequency_hz == 1.0e9
        assert built.package.quadrant_capacity(3) == 9

    def test_hetero_rows_carry_composition_and_utilization(self):
        row = run_scenario(Scenario(tolerance=1.0, hetero="trunk:ws"))
        assert row["hetero"] == "trunk:ws"
        assert row["package_composition"].endswith("trunk:ws@2")
        util = row["stage_utilization"]
        assert set(util) == {"FE_BFPN", "S_FUSE", "T_FUSE", "TRUNKS"}
        assert all(0 < u <= 1 for u in util.values())

    def test_trunk_hw_prefers_the_quadrant_override(self):
        s = Scenario(frequency_ghz=1.0, hetero="trunk:ws@1.5/8x8")
        assert s.trunk_hw() == (1.5, (8, 8))
        assert Scenario(frequency_ghz=1.0).trunk_hw() == (1.0, None)
        assert Scenario(hetero="fe:ws").trunk_hw() == (None, None)

    def test_grid_expands_hetero_innermost(self):
        grid = scenario_grid(tolerances=(1.0, 1.05),
                             heteros=(None, "trunk:ws"))
        assert [s.hetero for s in grid] == [None, "trunk:ws"] * 2
        assert len({s.key for s in grid}) == 4


class TestPlanStoreKeyingAcrossAxes:
    """Two scenarios differing only in hardware must never share plans."""

    @staticmethod
    def _cold():
        from repro.core import clear_plan_cache
        from repro.cost import clear_cache
        clear_cache()
        clear_plan_cache()

    def test_key_hashes_differ_per_accel_override(self):
        from repro.core.planstore import plan_key_hash
        from repro.workloads.trunks import build_trunks
        group = build_trunks().groups[0]
        base = simba_chiplet("os")
        hashes = {
            plan_key_hash(group, 2, accel, "best")
            for accel in (
                base,
                base.with_overrides(frequency_hz=1.0e9),
                base.with_overrides(native_tile=(8, 8)),
                simba_chiplet("ws"),
                nvdla_chiplet(),
            )
        }
        assert len(hashes) == 5
        # an override equal to the default is the same hardware: same key
        assert plan_key_hash(group, 2, base, "best") == plan_key_hash(
            group, 2, base.with_overrides(frequency_hz=2.0e9), "best")

    @pytest.mark.parametrize("axis", [
        {"frequency_ghz": 1.0},
        {"dataflow": "ws"},
    ])
    def test_store_never_shares_shards_across_axis(self, axis, tmp_path):
        store = tmp_path / "store"
        base = [Scenario(tolerance=1.0)]
        varied = [Scenario(tolerance=1.0, **axis)]
        self._cold()
        first = ScenarioSweep(base, store_path=store).run()
        assert first.cache_stats.misses > 0
        # The varied scenario must be a full miss against the warm store:
        # its accel differs, so no shard can serve it.
        self._cold()
        second = ScenarioSweep(varied, store_path=store).run()
        assert second.cache_stats.misses > 0
        assert second.cache_stats.store_hits == 0
        assert second.rows_json() != first.rows_json()
        # ... and once flushed, the varied scenario warm-starts exactly.
        self._cold()
        third = ScenarioSweep(varied, store_path=store).run()
        assert third.cache_stats.misses == 0
        assert third.cache_stats.store_hits > 0
        assert third.rows_json() == second.rows_json()

    def test_dram_axis_amortizes_for_free(self, tmp_path):
        # DRAM throttling is accounting-only: a dram_gbps scenario reuses
        # the exact plans of the default scenario (same accel), so the
        # store warm-starts it with zero misses.
        store = tmp_path / "store"
        self._cold()
        ScenarioSweep([Scenario(tolerance=1.0)], store_path=store).run()
        self._cold()
        warm = ScenarioSweep([Scenario(tolerance=1.0, dram_gbps=2.0)],
                             store_path=store).run()
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.store_hits > 0
