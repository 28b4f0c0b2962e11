"""Tests for per-quadrant heterogeneous package composition.

Covers the QuadrantOverrides spec (token grammar, canonicalization,
validation), its materialization through MCMPackage.with_accels, the
package composition strings, and the refactored core/hetero.py flow —
including the acceptance claim that a trunk-only ``ws`` override
reproduces the hetero.py Table I composition through the generic path.
"""

import pytest

from repro.arch import (
    QUADRANT_NAMES,
    QuadrantOverride,
    QuadrantOverrides,
    hetero_cells,
    package_composition,
    quadrant_ids,
    simba_package,
)
from repro.cost import nvdla_chiplet, simba_chiplet


class TestQuadrantOverrideParsing:
    def test_full_token_round_trips(self):
        spec = QuadrantOverrides.parse("trunk:ws@1.2/8x8")
        assert spec.token == "trunk:ws@1.2/8x8"
        ov = spec.get("trunk")
        assert ov.dataflow == "ws"
        assert ov.frequency_ghz == 1.2
        assert ov.native_tile == (8, 8)

    def test_partial_tokens(self):
        assert QuadrantOverrides.parse("temporal:@1.5").get(
            "temporal") == QuadrantOverride(frequency_ghz=1.5)
        assert QuadrantOverrides.parse("fe:/8x8").get(
            "fe") == QuadrantOverride(native_tile=(8, 8))
        assert QuadrantOverrides.parse("spatial:rs").get(
            "spatial") == QuadrantOverride(dataflow="rs")

    def test_canonicalization_is_spelling_independent(self):
        a = QuadrantOverrides.parse("trunk:WS@1.20+fe:os")
        b = QuadrantOverrides.parse("fe:os + trunk:ws@1.2")
        assert a == b
        assert a.token == b.token == "fe:os+trunk:ws@1.2"

    def test_unknown_quadrant_lists_valid_names(self):
        with pytest.raises(ValueError, match="unknown quadrant 'bogus'"):
            QuadrantOverrides.parse("bogus:ws")
        with pytest.raises(ValueError, match="fe, spatial, temporal, trunk"):
            QuadrantOverrides.parse("bogus:ws")

    def test_unknown_dataflow_lists_valid_styles(self):
        with pytest.raises(ValueError, match="unknown dataflow 'xx'"):
            QuadrantOverrides.parse("trunk:xx")
        with pytest.raises(ValueError, match="os, ws, rs"):
            QuadrantOverrides.parse("trunk:xx")

    def test_malformed_tokens_rejected(self):
        with pytest.raises(ValueError, match="QUADRANT:SPEC"):
            QuadrantOverrides.parse("trunk")
        with pytest.raises(ValueError,
                           match="empty quadrant override.*'trunk:'"):
            QuadrantOverrides.parse("trunk:")
        with pytest.raises(ValueError, match="bad frequency"):
            QuadrantOverrides.parse("trunk:ws@fast")
        with pytest.raises(ValueError, match="must be positive"):
            QuadrantOverrides.parse("trunk:ws@0")
        with pytest.raises(ValueError, match="must be positive"):
            QuadrantOverrides.parse("trunk:ws@nan")
        with pytest.raises(ValueError, match="ROWSxCOLS"):
            QuadrantOverrides.parse("trunk:ws/8x")
        with pytest.raises(ValueError,
                           match="positive integers.*'trunk:ws/0x8'"):
            QuadrantOverrides.parse("trunk:ws/0x8")
        with pytest.raises(ValueError, match="duplicate quadrant"):
            QuadrantOverrides.parse("trunk:ws+trunk:os")
        with pytest.raises(ValueError, match="empty hetero spec"):
            QuadrantOverrides.parse("  ")

    def test_empty_override_record_rejected(self):
        with pytest.raises(ValueError, match="empty quadrant override"):
            QuadrantOverride()

    def test_partial_count_token_round_trips(self):
        spec = QuadrantOverrides.parse("trunk:ws#4")
        assert spec.token == "trunk:ws#4"
        ov = spec.get("trunk")
        assert ov == QuadrantOverride(dataflow="ws", count=4)
        full = QuadrantOverrides.parse("trunk:ws@1.2/8x8#2")
        assert full.token == "trunk:ws@1.2/8x8#2"
        assert full.get("trunk").count == 2

    def test_count_tokens_rejected(self):
        with pytest.raises(ValueError, match="bad count"):
            QuadrantOverrides.parse("trunk:ws#four")
        with pytest.raises(ValueError, match="bad count"):
            QuadrantOverrides.parse("trunk:ws#")
        with pytest.raises(ValueError, match="positive integer"):
            QuadrantOverrides.parse("trunk:ws#0")
        # a count alone overrides no hardware: parse error, not a no-op
        with pytest.raises(ValueError, match="#COUNT alone"):
            QuadrantOverrides.parse("trunk:#4")


class TestQuadrantOverrideApply:
    def test_apply_layers_on_base_accel(self):
        base = simba_chiplet("os")
        ov = QuadrantOverrides.parse("trunk:ws@1.2").get("trunk")
        accel = ov.apply(base)
        assert accel.dataflow == "ws"
        assert accel.frequency_hz == 1.2e9
        assert accel.native_tile == base.native_tile  # kept

    def test_noop_override_is_identical_config(self):
        base = simba_chiplet("os")
        ov = QuadrantOverride(dataflow="os", frequency_ghz=2.0)
        assert ov.apply(base) == base  # same plans, same store entries


class TestPackageMaterialization:
    def test_whole_quadrant_rewritten(self):
        pkg = QuadrantOverrides.parse("trunk:ws").apply(simba_package())
        trunk = pkg.quadrant(3)
        assert len(trunk) == 9
        assert all(c.dataflow == "ws" for c in trunk)
        for q in (0, 1, 2):
            assert all(c.dataflow == "os" for c in pkg.quadrant(q))

    def test_multi_module_override_hits_every_module(self):
        pkg = QuadrantOverrides.parse("trunk:ws").apply(
            simba_package(npus=2))
        for q in (3, 7):  # trunk quadrant of both modules
            assert all(c.dataflow == "ws" for c in pkg.quadrant(q))
        assert all(c.dataflow == "os" for c in pkg.quadrant(4))

    def test_explicit_grid_package_supported(self):
        pkg = QuadrantOverrides.parse("trunk:ws").apply(
            simba_package(topology="torus-8x8"))
        assert all(c.dataflow == "ws" for c in pkg.quadrant(3))
        assert pkg.topology.kind == "torus"

    def test_with_accels_rejects_unknown_ids(self):
        with pytest.raises(KeyError, match="not in package"):
            simba_package().with_accels({999: nvdla_chiplet()})

    def test_composition_string(self):
        pkg = QuadrantOverrides.parse(
            "temporal:@1.5+trunk:ws@1.2").apply(simba_package())
        assert package_composition(pkg) == (
            "fe:os@2|spatial:os@2|temporal:os@1.5|trunk:ws@1.2")
        assert package_composition(simba_package()) == (
            "fe:os@2|spatial:os@2|temporal:os@2|trunk:os@2")

    def test_partial_count_rewrites_corner_cells_only(self):
        pkg = QuadrantOverrides.parse("trunk:ws#2").apply(simba_package())
        ws = sorted(c.coords for c in pkg.chiplets if c.dataflow == "ws")
        # the Het(2) corner policy repro.core.hetero has always used
        assert ws == [(5, 4), (5, 5)]
        assert sum(c.dataflow == "os" for c in pkg.quadrant(3)) == 7
        # a partially-rewritten quadrant reports as mixed
        assert "trunk:mixed" in package_composition(pkg)

    def test_count_exceeding_quadrant_capacity_rejected(self):
        with pytest.raises(ValueError, match="9 chiplet"):
            QuadrantOverrides.parse("trunk:ws#10").apply(simba_package())
        # whole-quadrant count is fine and equals the uncounted override
        a = QuadrantOverrides.parse("trunk:ws#9").apply(simba_package())
        b = QuadrantOverrides.parse("trunk:ws").apply(simba_package())
        assert [c.accel for c in a.chiplets] == [c.accel for c in b.chiplets]

    def test_quadrant_names_cover_the_standard_tiling(self):
        assert quadrant_ids("fe", simba_package()) == [0]
        assert quadrant_ids("trunk", simba_package(npus=2)) == [3, 7]
        assert len(QUADRANT_NAMES) == 4


class TestHeteroFlowComposition:
    """core/hetero.py as a composition of the general mechanism."""

    def test_hetero_cells_keeps_the_corner_policy(self):
        # The Het(k) selection prefers the trunk-quadrant corner farthest
        # from the fusion stages — the policy hetero.py has always used.
        pkg = simba_package()
        cells = hetero_cells(pkg, (3,), 2)
        assert [c.coords for c in cells] == [(5, 5), (5, 4)]
        # count=None selects the whole quadrant
        assert len(hetero_cells(pkg, (3,))) == 9

    def test_trunk_ws_override_reproduces_table1_composition(self):
        """Acceptance: a trunk-only ws override == hetero.py's layout.

        The generic path (Scenario ``hetero`` axis -> QuadrantOverrides
        -> with_accels) must produce the exact package layout hetero.py
        builds for the full-quadrant WS column of Table I, and the
        sweep's generic ``het_ws_budget`` path must reproduce its trunk
        pipe latency.
        """
        from repro.core import schedule_heterogeneous
        from repro.sweep import Scenario, run_scenario

        legacy = schedule_heterogeneous(ws_chiplets=9)
        generic = Scenario(hetero="trunk:ws").package()
        legacy_ws = {c.coords for c in legacy.package.chiplets
                     if c.dataflow == "ws"}
        generic_ws = {c.coords for c in generic.chiplets
                      if c.dataflow == "ws"}
        assert legacy_ws == generic_ws
        assert [c.dataflow for c in legacy.package.chiplets] == \
            [c.dataflow for c in generic.chiplets]
        # Table I's WS-column pipe latency through the generic sweep path
        # (the same DSE the hetero.py flow embeds).
        row = run_scenario(Scenario(het_ws_budget=9))
        assert row["trunk_pipe_ms"] == pytest.approx(
            legacy.trunk_config.pipe_ms)
        assert row["trunk_pipe_ms"] == pytest.approx(
            legacy.pipe_latency_s * 1e3)  # WS is the bottleneck (Table I)

    def test_mixed_package_matcher_beats_unsharded_dse_trunks(self):
        # Algorithm 1 on the mixed package may row-shard the WS trunks,
        # so the generic schedule can only improve on the shard-free DSE
        # mapping hetero.py reports for the WS column.
        from repro.core import schedule_heterogeneous
        from repro.sweep import Scenario

        legacy = schedule_heterogeneous(ws_chiplets=9)
        schedule = Scenario(hetero="trunk:ws").build().schedule()
        assert schedule.pipe_latency_s <= legacy.pipe_latency_s + 1e-12

    def test_het2_layout_unchanged_by_refactor(self):
        # The partial Het(2) embedding keeps its exact pre-refactor
        # placement (corner cells of the trunk quadrant).
        from repro.core import schedule_heterogeneous
        het2 = schedule_heterogeneous(ws_chiplets=2)
        ws = sorted(c.coords for c in het2.package.chiplets
                    if c.dataflow == "ws")
        assert ws == [(5, 4), (5, 5)]

    def test_count_token_matches_legacy_het_k_layout(self):
        # The #COUNT axis token embeds exactly the hetero.py Het(k)
        # package, so the sweep/design axis speaks the paper's Table I
        # partial rows too.
        from repro.core import schedule_heterogeneous
        from repro.sweep import Scenario
        legacy = schedule_heterogeneous(ws_chiplets=2)
        generic = Scenario(hetero="trunk:ws#2").package()
        assert [c.dataflow for c in legacy.package.chiplets] == \
            [c.dataflow for c in generic.chiplets]
