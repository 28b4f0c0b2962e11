"""Tests for serialization and report generation."""

import json

from repro.io import generate_report, group_to_dict, layer_to_dict
from repro.workloads import conv


class TestSerialization:
    def test_layer_round_trips_through_json(self):
        payload = layer_to_dict(conv("c", (90, 160), 128, 64, r=3,
                                     stride=2))
        restored = json.loads(json.dumps(payload))
        assert restored["kind"] == "conv"
        assert restored["macs"] == 90 * 160 * 128 * 64 * 9

    def test_group_dict_fields(self, workload):
        payload = group_to_dict(workload.find_group("T_FFN"))
        assert payload["instances"] == 12
        assert payload["instance_axis"] == "frame"
        assert len(payload["layers"]) == 2

    def test_workload_dict_covers_all_stages(self, workload):
        payload = [group_to_dict(g) for g in workload.all_groups()]
        assert list(dict.fromkeys(g["stage"] for g in payload)) == [
            "FE_BFPN", "S_FUSE", "T_FUSE", "TRUNKS"]
        assert sum(g["total_macs"] for g in payload) == workload.total_macs


class TestReport:
    def test_report_contains_every_section(self, tmp_path):
        out = tmp_path / "REPORT.md"
        text = generate_report(out)
        assert out.exists()
        for section in ("fig3", "fig10", "table2", "table3"):
            assert f"## {section}" in text
        assert "Table II" in text
