"""Tests for terminal visualization (floorplans, charts)."""

from repro.viz import (
    chiplet_labels,
    hbar_chart,
    render_floorplan,
    sparkline,
    step_plot,
)


class TestFloorplan:
    def test_mesh_dimensions(self, schedule36):
        text = render_floorplan(schedule36)
        lines = text.splitlines()
        borders = [l for l in lines if l.startswith("+")]
        assert len(borders) == schedule36.package.topology.height + 1

    def test_all_fe_instances_visible(self, schedule36):
        text = render_floorplan(schedule36)
        for i in range(8):
            assert f"FE{i}" in text

    def test_labels_cover_used_chiplets(self, schedule36):
        labels = chiplet_labels(schedule36)
        assert set(labels) == schedule36.used_chiplets

    def test_busy_annotations_optional(self, schedule36):
        with_busy = render_floorplan(schedule36, show_busy=True)
        without = render_floorplan(schedule36, show_busy=False)
        assert "ms" in with_busy
        assert len(without.splitlines()) < len(with_busy.splitlines())


class TestCharts:
    def test_hbar_scales_to_peak(self):
        text = hbar_chart([("a", 10.0), ("b", 5.0)], width=20)
        lines = text.splitlines()
        assert lines[0].count("#") == 20
        assert lines[1].count("#") == 10

    def test_hbar_empty(self):
        assert "empty" in hbar_chart([])

    def test_step_plot_has_marker_per_point(self):
        text = step_plot([("s1", 80.0), ("s2", 40.0)], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert all("o" in l for l in lines[1:])

    def test_sparkline_range(self):
        line = sparkline([1.0, 2.0, 3.0, 2.0])
        assert len(line) == 4
        assert line[0] == "▁" and line[2] == "█"

    def test_sparkline_constant_and_empty(self):
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0]) == "▁▁"


class TestChartNumbers:
    def test_hbar_values_rendered(self):
        text = hbar_chart([("x", 12.345)], unit=" ms")
        assert "12.35 ms" in text

    def test_zero_peak_handled(self):
        text = hbar_chart([("x", 0.0), ("y", 0.0)])
        assert "#" not in text
