"""Tests for the chiplet-count scaling report and DRAM steady-state model.

The report is the headline artifact of PR 3: a deterministic
``npus x workload x dram_gbps`` table in which scaling flattens where an
undersized DRAM interface takes over the steady state — validated both
analytically (Schedule) and empirically (the stream simulator in
``oracles.py``).
"""

import json

import pytest
from oracles import stream_validate

from repro.analysis import chiplet_scaling_report, chiplet_scaling_rows
from repro.cli import main
from repro.core import clear_plan_cache, plan_cache_stats
from repro.cost import clear_cache
from repro.experiments import scaling
from repro.sweep import Scenario, ScenarioSweep, scenario_grid

#: tiny grid that still exhibits a DRAM wall (2 GB/s < any compute fps)
TINY = dict(npus=(1, 2), dram_gbps=(None, 2.0))


@pytest.fixture(scope="module")
def report():
    return scaling.run(**TINY)


class TestScalingReport:
    def test_rows_cover_the_grid(self, report):
        assert len(report["rows"]) == 4
        assert report["axes"]["npus"] == [1, 2]
        assert report["axes"]["dram_gbps"] == [2.0, "unbounded"]

    def test_unbounded_column_scales(self, report):
        col = [r for r in report["rows"] if r["dram"] == "unbounded"]
        assert col[0]["speedup"] == 1.0
        assert col[1]["speedup"] > 1.5
        assert not any(r["dram_throttled"] for r in col)

    def test_dram_wall_flattens_scaling(self, report):
        col = [r for r in report["rows"] if r["dram"] == "2 GB/s"]
        assert all(r["dram_throttled"] for r in col)
        # DRAM sets the frame time, so adding an NPU buys nothing.
        assert col[0]["pipe_ms"] == col[1]["pipe_ms"]
        assert col[1]["scaling_efficiency"] < 0.6
        # steady-state fps strictly below the compute-only fps
        for r in col:
            assert r["steady_fps"] < r["compute_fps"]

    def test_throttled_points_and_wall_are_reported(self, report):
        assert report["throttled_points"]
        assert report["dram_wall"] == [
            {"workload": "default", "dram": "2 GB/s",
             "first_throttled_npus": 1}]

    def test_report_is_deterministic(self):
        a = json.dumps(scaling.run(**TINY), sort_keys=True)
        b = json.dumps(scaling.run(**TINY), sort_keys=True)
        assert a == b

    def test_render_mentions_the_wall(self, report):
        text = scaling.render(report)
        assert "DRAM wall" in text
        assert "Chiplet-count scaling" in text

    def test_rows_builder_accepts_plain_sweep_rows(self):
        rows = [
            {"workload": "default", "npus": 1, "used_chiplets": 35,
             "pipe_ms": 90.0, "energy_j": 1.0, "utilization": 0.5},
            {"workload": "default", "npus": 2, "used_chiplets": 69,
             "pipe_ms": 45.0, "energy_j": 1.1, "utilization": 0.5},
        ]
        table = chiplet_scaling_rows(rows)
        assert table[1]["speedup"] == 2.0
        assert table[1]["scaling_efficiency"] == 1.0
        assert table[0]["dram"] == "unbounded"
        report = chiplet_scaling_report(rows)
        assert report["dram_wall"] == []

    def test_bench_grid_report_and_plan_misses(self):
        # BENCH_scaling.json's exact gates on npus 1,2,4 x dram_gbps
        # none,6,2: the throttled points, the DRAM wall, and cold plan
        # misses equal to a cold npus-only sweep's (the DRAM axis is
        # accounting-only, so it re-plans nothing).
        clear_cache()
        clear_plan_cache()
        report = scaling.run(npus=(1, 2, 4), dram_gbps=(None, 6.0, 2.0))
        report_misses = plan_cache_stats().misses
        clear_cache()
        clear_plan_cache()
        ScenarioSweep(scenario_grid(npus=(1, 2, 4))).run()
        assert report_misses == plan_cache_stats().misses == 229
        assert len(report["rows"]) == 9
        assert len(report["throttled_points"]) == 5
        assert report["dram_wall"] == [
            {"workload": "default", "dram": "2 GB/s",
             "first_throttled_npus": 1},
            {"workload": "default", "dram": "6 GB/s",
             "first_throttled_npus": 2}]

    def test_dram_wall_ordered_numerically_not_lexically(self):
        # '10 GB/s' < '2 GB/s' as strings; the wall list must follow the
        # numerically-ordered rows table instead.
        rows = [
            {"workload": "default", "npus": 1, "used_chiplets": 35,
             "pipe_ms": 100.0, "compute_pipe_ms": 90.0, "energy_j": 1.0,
             "dram_gbps": g, "dram_throttled": True}
            for g in (2.0, 10.0, 20.0)
        ]
        report = chiplet_scaling_report(rows)
        assert [w["dram"] for w in report["dram_wall"]] == [
            "2 GB/s", "10 GB/s", "20 GB/s"]


class TestScalingCli:
    def test_report_scaling_json_is_deterministic(self, capsys):
        args = ["report", "scaling", "--npus", "1,2",
                "--dram-gbps", "none,2", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert any(r["dram_throttled"] for r in payload["rows"])
        assert any(r["steady_fps"] < r["compute_fps"]
                   for r in payload["rows"])

    def test_report_scaling_writes_output(self, tmp_path, capsys):
        out = tmp_path / "scaling.json"
        assert main(["report", "scaling", "--npus", "1",
                     "--dram-gbps", "none", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["npus"] == 1
        assert "Chiplet-count scaling" in capsys.readouterr().out

    def test_shared_flags_before_subcommand(self, capsys):
        assert main(["--json", "report", "scaling", "--npus", "1",
                     "--dram-gbps", "none"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["axes"]["npus"] == [1]

    def test_bad_axis_value_names_the_axis(self, capsys):
        with pytest.raises(SystemExit):
            main(["report", "scaling", "--npus", "one"])
        assert "axis 'npus'" in capsys.readouterr().err

    def test_plain_report_still_works(self, tmp_path, capsys):
        # `report` without `scaling` keeps its markdown-report meaning —
        # exercised shallowly via the experiment registry instead of the
        # full (slow) document: the scaling module must be registered.
        from repro.experiments import ALL_EXPERIMENTS
        assert "scaling" in ALL_EXPERIMENTS

    def test_sweep_cli_rejects_bad_tile(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--native-tiles", "16*16"])
        assert "native_tile" in capsys.readouterr().err

    def test_sweep_cli_axis_flag(self, capsys):
        assert main(["sweep", "--axis", "native_tile=8x8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["native_tile"] == [8, 8]

    def test_sweep_cli_axis_flag_malformed(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "native_tile"])
        assert "NAME=VALUES" in capsys.readouterr().err


class TestDramStreamSimulation:
    def test_des_measures_the_dram_wall(self):
        schedule = Scenario(dram_gbps=2.0).build().schedule()
        assert schedule.dram_throttled
        result = stream_validate(schedule, n_frames=16)
        # The empirical inter-departure time equals the DRAM stream time
        # (the FIFO interface is the bottleneck), matching the analytical
        # prediction.
        assert result.measured_pipe_s == pytest.approx(
            schedule.dram_time_s, rel=1e-6)
        assert result.prediction_error < 0.01
        assert result.sustainable_fps < 1.0 / schedule.compute_pipe_latency_s

    def test_des_unthrottled_when_dram_is_fast(self):
        schedule = Scenario(dram_gbps=200.0).build().schedule()
        assert not schedule.dram_throttled
        result = stream_validate(schedule, n_frames=16)
        baseline = stream_validate(Scenario().build().schedule(),
                                   n_frames=16)
        assert result.measured_pipe_s == pytest.approx(
            baseline.measured_pipe_s, rel=1e-6)

    def test_energy_includes_dram_when_attached(self):
        plain = Scenario().build().schedule()
        dram = Scenario(dram_gbps=63.5).build().schedule()
        assert dram.dram_energy_j > 0
        assert dram.energy_j == pytest.approx(
            plain.energy_j + dram.dram_energy_j)
