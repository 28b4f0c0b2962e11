"""Reproduction-band tests: every paper table/figure driver.

Each test asserts the *shape* the paper reports — who wins, by roughly what
factor, where crossovers fall.  The bands asserted here are the
reproduction contract.
"""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    fig3,
    fig4,
    fig5to8,
    fig9,
    fig10,
    fig11,
    table1,
    table2,
    table3,
)


@pytest.fixture(scope="module")
def results():
    return {name: mod.run() for name, mod in ALL_EXPERIMENTS.items()}


class TestFig3:
    def test_os_speedup_band(self, results):
        # Paper: 6.85x OS speedup over WS across the workloads.
        assert 5.5 < results["fig3"]["os_speedup_over_ws"] < 8.5

    def test_fusion_shares(self, results):
        shares = results["fig3"]["fusion_share"]["shidiannao_os"]
        assert 20 < shares["S_FUSE"] < 33   # paper: 25-28%
        assert 42 < shares["T_FUSE"] < 60   # paper: 52-54%

    def test_fe_per_camera_latency(self, results):
        rows = {r["component"]: r
                for r in results["fig3"]["components"]["shidiannao_os"]}
        assert 80 < rows["FE+BFPN"]["latency_ms"] < 100  # paper: 82.7 ms


class TestFig4:
    def test_fusion_fully_os_affine(self, results):
        summary = results["fig4"]["summary"]["S+T Attn Fusion"]
        assert summary["os_latency_affine_pct"] == 100.0
        assert summary["ws_energy_affine_pct"] == 0.0

    def test_fe_tradeoff(self, results):
        summary = results["fig4"]["summary"]["FE+BFPN"]
        assert summary["os_latency_affine_pct"] > 50
        assert summary["ws_energy_affine_pct"] > 50


class TestFig5to8:
    def test_stage_pipe_latencies_below_base(self, results):
        base = results["fig5to8"]["base_latency_ms"]
        for stage in results["fig5to8"]["stages"]:
            assert stage["pipe_ms"] <= base * 1.05 + 1e-6

    def test_every_quadrant_used(self, results):
        for stage in results["fig5to8"]["stages"]:
            assert 8 <= stage["chiplets"] <= 9

    def test_paper_mapping_shapes(self, results):
        stages = {s["stage"]: s for s in results["fig5to8"]["stages"]}
        assert stages["S_FUSE"]["mapping"]["S_FFN"]["chiplets"] == 4
        assert stages["T_FUSE"]["mapping"]["T_FFN"]["chiplets"] == 6


class TestFig9:
    def test_nop_two_orders_below_compute(self, results):
        # Paper: NoP costs "at least two orders of magnitude less than the
        # computational costs" — we require >= 50x with our bigger
        # BEV-grid tensors.
        assert results["fig9"]["compute_to_nop_ratio"] > 50

    def test_qkv_outputs_are_the_heavy_edges(self, results):
        edges = results["fig9"]["edges"]
        heaviest = max(edges, key=lambda e: e["latency_ms"])
        assert any(tag in heaviest["src"]
                   for tag in ("KV_PROJ", "FFN", "QKV"))


class TestFig10:
    def test_dual_npu_speedup(self, results):
        assert 1.7 < results["fig10"]["speedup"] < 2.3  # paper: ~2x

    def test_trace_contains_paper_moves(self, results):
        trace = results["fig10"]["trace"]
        moves = {(t["group"], t["n_chiplets"]) for t in trace}
        assert ("T_FFN", 12) in moves      # frame sharding exhausted
        assert ("FE_BFPN", 16) in moves    # FE two-way pipeline partition

    def test_trace_pipe_nonincreasing_after_match(self, results):
        pipes = [t["pipe_ms"] for t in results["fig10"]["trace"]]
        assert all(a >= b - 1e-6 for a, b in zip(pipes, pipes[1:]))


class TestTable1:
    def test_ws_column_catastrophic(self, results):
        rows = {r["config"]: r for r in results["table1"]["rows"]}
        assert rows["WS"]["e2e_ms"] > 4 * rows["OS"]["e2e_ms"]
        assert not rows["WS"]["feasible"]

    def test_het_energy_and_edp_reductions(self, results):
        rows = {r["config"]: r for r in results["table1"]["rows"]}
        for label in ("Het(2)", "Het(4)"):
            assert rows[label]["d_energy_pct"] < 0
            assert rows[label]["d_edp_pct"] < 0
            assert abs(rows[label]["e2e_ms"] - rows["OS"]["e2e_ms"]) \
                <= 0.02 * rows["OS"]["e2e_ms"]

    def test_det_energy_reduction_band(self, results):
        assert 10 < results["table1"]["det_energy_reduction_pct"] < 45


class TestTable2:
    def test_headline_throughput_claim(self, results):
        # Abstract: "82% ... increase in throughput" (pipe-latency
        # reduction vs the best conventional baseline).
        red = results["table2"]["pipe_reduction_vs_best_baseline_pct"]
        assert 75 < red < 92

    def test_mcm_beats_everything(self, results):
        rows = {r["config"]: r for r in results["table2"]["rows"]}
        ours = rows["36x256-ours"]
        for name, row in rows.items():
            if name != "36x256-ours":
                assert ours["pipe_ms"] < row["pipe_ms"]
                assert ours["utilization_pct"] > row["utilization_pct"]

    def test_mcm_pays_nop_energy(self, results):
        rows = {r["config"]: r for r in results["table2"]["rows"]}
        assert (rows["36x256-ours"]["energy_j"]
                > rows["1x9216-stagewise"]["energy_j"])

    def test_monolithic_e2e_band(self, results):
        rows = {r["config"]: r for r in results["table2"]["rows"]}
        assert 1600 < rows["1x9216-stagewise"]["e2e_ms"] < 2100  # paper 1.8s


class TestTable3:
    def test_superlinear_upsampling_scaling(self, results):
        rows = results["table3"]["rows"]
        ratios = [r["e2e_ratio"] for r in rows]
        assert ratios[0] == 1.0
        assert 3.0 < ratios[1] < 5.0      # paper: 4.10x
        assert 12.0 < ratios[2] < 22.0    # paper: 20.72x
        assert 50.0 < ratios[3] < 90.0    # paper: 87.59x

    def test_final_layer_dominates(self, results):
        # Paper: the last upsampling layer contributes ~75% of latency.
        assert 65 < results["table3"]["final_stage_share_pct"] < 85


class TestFig11:
    def test_crossover_at_sixty_percent(self, results):
        assert 50 <= results["fig11"]["min_feasible_context_pct"] <= 75

    def test_full_context_over_threshold(self, results):
        points = {p["context_pct"]: p for p in results["fig11"]["points"]}
        assert not points[100]["meets_constraint"]
        assert points[10]["meets_constraint"]


class TestRenderers:
    def test_every_experiment_renders(self, results):
        for name, mod in ALL_EXPERIMENTS.items():
            text = mod.render(results[name])
            assert isinstance(text, str) and len(text) > 50
