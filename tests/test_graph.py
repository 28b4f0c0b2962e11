"""Unit tests for layer groups, stages, and the workload graph."""

import pytest

from repro.workloads import conv, dense
from repro.workloads.graph import LayerGroup, Stage


def _group(name, deps=(), instances=1, stage="S"):
    return LayerGroup(
        name=name,
        layers=(dense(f"{name}.l", (8, 8), 16, 16),),
        stage=stage,
        instances=instances,
        depends_on=tuple(deps),
    )


class TestLayerGroup:
    def test_rejects_empty_chain(self):
        with pytest.raises(ValueError):
            LayerGroup(name="g", layers=(), stage="S")

    def test_rejects_zero_instances(self):
        with pytest.raises(ValueError):
            LayerGroup(name="g", layers=(conv("c", (4, 4), 4, 4),),
                       stage="S", instances=0)

    def test_total_macs_scales_with_instances(self):
        g = _group("g", instances=8)
        assert g.total_macs == 8 * g.macs_per_instance

    def test_output_layer_is_last(self):
        g = LayerGroup(name="g", stage="S",
                       layers=(conv("a", (4, 4), 4, 4),
                               dense("b", (4, 4), 8, 4)))
        assert g.output_layer.name == "b"


class TestStage:
    def test_duplicate_group_rejected(self):
        stage = Stage("S")
        stage.add(_group("a"))
        with pytest.raises(ValueError):
            stage.add(_group("a"))

    def test_topo_order_respects_dependencies(self):
        stage = Stage("S")
        stage.add(_group("c", deps=("b",)))
        stage.add(_group("a"))
        stage.add(_group("b", deps=("a",)))
        order = [g.name for g in stage.topo_order()]
        assert order.index("a") < order.index("b") < order.index("c")

    def test_topo_order_detects_cycles(self):
        stage = Stage("S")
        stage.add(_group("a", deps=("b",)))
        stage.add(_group("b", deps=("a",)))
        with pytest.raises(ValueError):
            stage.topo_order()

    def test_group_lookup_raises(self):
        with pytest.raises(KeyError):
            Stage("S").group("missing")


class TestPerceptionWorkload:
    def test_real_pipeline_has_four_stages(self, workload):
        assert [s.name for s in workload.stages] == [
            "FE_BFPN", "S_FUSE", "T_FUSE", "TRUNKS"]

    def test_all_expected_groups_present(self, workload):
        names = {g.name for g in workload.all_groups()}
        expected = {"FE_BFPN", "S_LIFT", "S_Q_PROJ", "S_KV_PROJ", "S_ATTN",
                    "S_FFN", "T_Q_PROJ", "T_KV_PROJ", "T_ATTN", "T_FFN",
                    "T_POOL", "OCC_TR", "LANE_TR", "DET_TR"}
        assert expected <= names

    def test_total_macs_in_calibrated_band(self, workload):
        # ~850 GMACs for the full 8-camera pipeline (DESIGN.md Sec. 3).
        assert 6e11 < workload.total_macs < 1.2e12

    def test_find_group_and_missing(self, workload):
        assert workload.find_group("T_FFN").instances == 12
        with pytest.raises(KeyError):
            workload.find_group("NOPE")

    def test_instance_axes(self, workload):
        assert workload.find_group("FE_BFPN").instance_axis == "camera"
        assert workload.find_group("T_KV_PROJ").instance_axis == "frame"
        assert workload.find_group("DET_TR").instance_axis == "model"
