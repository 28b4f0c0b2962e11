"""Tests for per-quadrant heterogeneous package composition.

Covers the QuadrantOverrides spec (token grammar, canonicalization,
validation), its materialization through MCMPackage.with_accels, the
one-engine-per-quadrant invariant, the package composition strings, and
the core/hetero.py flow: a trunk-only ``ws`` override and the
``het_ws_budget`` axis against the hetero.py Table I flow.
"""

import pytest

from repro.arch import (
    QUADRANT_NAMES,
    QuadrantOverride,
    QuadrantOverrides,
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

    def test_count_tokens_rejected(self):
        # A quadrant is one engine: Het(k) is the trunk DSE's budget.
        for text in ("trunk:ws#4", "trunk:ws@1.2/8x8#2", "fe:ws#4",
                     "trunk:#4", "trunk:ws#", "temporal:@1.5+trunk:ws#9"):
            with pytest.raises(ValueError,
                               match="one engine.*--het-budgets"):
                QuadrantOverrides.parse(text)


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

    def test_count_exceeding_quadrant_capacity_rejected(self):
        # The Het(k) count is the trunk DSE's budget, checked against the
        # trunk quadrants it runs on.
        from repro.sweep import Scenario, run_scenario
        with pytest.raises(ValueError, match=r"capacity \(9 chiplets"):
            run_scenario(Scenario(het_ws_budget=10))

    @pytest.mark.parametrize("text, npus", [
        ("trunk:ws", 1), ("trunk:ws", 2), ("temporal:@1.5+fe:/8x8", 2)])
    def test_override_shares_one_config_per_quadrant(self, text, npus):
        # The invariant check compares configs by identity first.
        pkg = QuadrantOverrides.parse(text).apply(simba_package(npus=npus))
        assert all(c.accel is pkg.engine(c.quadrant % 4)
                   for c in pkg.chiplets)

    def test_quadrant_names_cover_the_standard_tiling(self):
        assert quadrant_ids("fe", simba_package()) == [0]
        assert quadrant_ids("trunk", simba_package(npus=2)) == [3, 7]
        assert len(QUADRANT_NAMES) == 4


class TestHeteroFlowComposition:
    """core/hetero.py as a composition of the general mechanism."""

    def test_trunk_ws_override_reproduces_table1_composition(self):
        """Acceptance: a trunk-only ws override is Table I's WS column.

        The generic path (Scenario ``hetero`` axis -> QuadrantOverrides
        -> with_accels) must make the whole trunk quadrant, and nothing
        else, WS, and the sweep's generic ``het_ws_budget`` path must
        reproduce hetero.py's trunk pipe latency.
        """
        from repro.core import schedule_heterogeneous
        from repro.sweep import Scenario, run_scenario

        legacy = schedule_heterogeneous(ws_chiplets=9)
        generic = Scenario(hetero="trunk:ws").package()
        assert [c.dataflow for c in generic.chiplets] == [
            "ws" if c.quadrant == 3 else "os" for c in generic.chiplets]
        # Table I's WS-column pipe latency through the generic sweep path
        # (the same DSE the hetero.py flow runs).
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
