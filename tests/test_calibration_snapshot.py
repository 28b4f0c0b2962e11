"""Golden calibration snapshot.

Locks the headline reproduction numbers so that any change to the cost
model, the workload dimensions, or the scheduler that silently moves them
is caught immediately.  Tolerances here are tight (1%), unlike the wide
paper-shape bands in ``test_experiments.py`` — these pin *our* calibrated
values, not the paper's.

If a change intentionally moves these numbers, update this file, and
check them against the bands in ``test_experiments.py``.
"""

import pytest

from repro.cost import chain_latency_s, shidiannao_chiplet


class TestGoldenNumbers:
    def test_lat_base(self, schedule36):
        assert schedule36.base_latency_s * 1e3 == pytest.approx(89.24,
                                                                rel=0.01)

    def test_pipe_latency_36(self, schedule36):
        assert schedule36.pipe_latency_s * 1e3 == pytest.approx(89.24,
                                                                rel=0.01)

    def test_e2e_latency_36(self, schedule36):
        assert schedule36.e2e_latency_s * 1e3 == pytest.approx(449.4,
                                                               rel=0.01)

    def test_energy_36(self, schedule36):
        assert schedule36.energy_j == pytest.approx(0.829, rel=0.01)

    def test_utilization_36(self, schedule36):
        assert schedule36.utilization == pytest.approx(0.524, rel=0.01)

    def test_pipe_latency_72(self, schedule72):
        assert schedule72.pipe_latency_s * 1e3 == pytest.approx(46.23,
                                                                rel=0.01)

    def test_total_macs(self, workload):
        assert workload.total_macs == pytest.approx(861.3e9, rel=0.01)

    def test_single_chiplet_component_anchors(self, workload):
        accel = shidiannao_chiplet()
        anchors = {
            "S_ATTN": 20.37,
            "T_ATTN": 36.66,
            "OCC_TR": 79.07,
            "DET_TR": 18.76,
        }
        for name, expected_ms in anchors.items():
            group = workload.find_group(name)
            measured = chain_latency_s(group.layers, accel) * 1e3
            assert measured == pytest.approx(expected_ms, rel=0.01), name
