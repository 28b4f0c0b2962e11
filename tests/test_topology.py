"""Tests for the first-class NoP topology subsystem (PR 4).

Covers the :class:`~repro.arch.topology.NoPTopology` hop geometry (mesh
delegation, torus wraparound, explicit grids), token parsing, the package
integration (quadrants, ``hops``), topology-aware placement and schedule
pricing, the ``topology`` sweep axis (key/byte-stability, rows, plan
keying), and the Fig. 9-style acceptance claim: at equal package size a
torus yields strictly lower mean NoP hop counts at no pipe-latency cost.
"""

import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch import (
    TOPOLOGY_KINDS,
    NoPTopology,
    canonical_topology,
    min_hop_map,
    parse_topology,
    simba_package,
    topology_for,
)
from repro.core.throughput import match_throughput
from repro.sweep import Scenario, ScenarioSweep, run_scenario, scenario_grid

DATA = pathlib.Path(__file__).parent / "data"
TORUS_ROWS = DATA / "frozen_torus_rows.json"
EXPLICIT_GRID_ROWS = DATA / "frozen_explicit_grid_rows.json"


@st.composite
def hop_map_cases(draw):
    """Kind, grid dims and 0 to all cells as sources, with repeats."""
    kind = draw(st.sampled_from(TOPOLOGY_KINDS))
    w, h = draw(st.one_of(
        st.tuples(st.integers(1, 25), st.integers(1, 9)),
        st.sampled_from([(12, 6), (24, 6)])))  # the multi-module grids
    cells = [(x, y) for x in range(w) for y in range(h)]
    sources = draw(st.one_of(
        st.lists(st.sampled_from(cells), max_size=2 * len(cells)),
        st.permutations(cells)))
    return kind, w, h, sources


@st.composite
def nearest_hops_cases(draw):
    """Kind, grid dims, and source and target cell lists (either may be
    empty or repeat cells)."""
    kind = draw(st.sampled_from(TOPOLOGY_KINDS))
    w, h = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cells = st.integers(0, w * h - 1)
    sources = draw(st.lists(cells, max_size=2 * w * h))
    targets = draw(st.lists(cells, max_size=2 * w * h))
    return kind, w, h, sources, targets


class TestTopologyGeometry:
    def test_mesh_hops_are_manhattan(self):
        topo = NoPTopology("mesh", 6, 6)
        assert topo.hops((0, 0), (3, 2)) == 5
        assert topo.hops((0, 0), (5, 5)) == 10
        assert topo.hops((2, 2), (2, 2)) == 0
        assert not topo.wraparound

    def test_torus_hops_wrap_both_axes(self):
        topo = NoPTopology("torus", 6, 6)
        assert topo.hops((0, 0), (5, 0)) == 1   # x wraparound
        assert topo.hops((0, 0), (0, 5)) == 1   # y wraparound
        assert topo.hops((0, 0), (5, 5)) == 2   # both
        assert topo.hops((0, 0), (3, 3)) == 6   # at the diameter
        assert topo.hops((1, 1), (2, 2)) == 2   # short routes unchanged

    def test_torus_never_longer_than_mesh(self):
        mesh = NoPTopology("mesh", 8, 6)
        torus = NoPTopology("torus", 8, 6)
        for ax in range(8):
            for ay in range(6):
                for bx in range(8):
                    for by in range(6):
                        assert (torus.hops((ax, ay), (bx, by))
                                <= mesh.hops((ax, ay), (bx, by)))

    def test_mesh_min_hop_map_matches_seed_transform(self):
        topo = NoPTopology("mesh", 12, 6)
        sources = [(0, 0), (7, 3), (11, 5)]
        assert topo.min_hop_map(sources) == min_hop_map(12, 6, sources)

    @settings(max_examples=150, deadline=None)
    @given(case=hop_map_cases())
    @example(case=("torus", 6, 6, [(0, 0), (4, 5)]))
    def test_min_hop_map_is_closed_form_minimum(self, case):
        kind, w, h, sources = case
        topo = NoPTopology(kind, w, h)
        want = [[min((topo.hops((x, y), s) for s in sources), default=w + h)
                 for y in range(h)] for x in range(w)]
        assert topo.min_hop_map(sources) == want

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(TOPOLOGY_KINDS), w=st.integers(1, 9),
           h=st.integers(1, 9))
    @example(kind="torus", w=7, h=3)
    def test_hop_table_entries_are_hops(self, kind, w, h):
        topo = NoPTopology(kind, w, h)
        cells = [(x, y) for y in range(h) for x in range(w)]  # y * w + x
        assert topo.hop_table == tuple(
            tuple(topo.hops(a, b) for b in cells) for a in cells)

    @settings(max_examples=150, deadline=None)
    @given(case=nearest_hops_cases())
    @example(case=("torus", 6, 6, [], [0, 35, 0]))
    @example(case=("mesh", 4, 3, [5, 5, 0], [11, 5, 3]))
    def test_nearest_hops_is_min_hops_to_a_source(self, case):
        kind, w, h, sources, targets = case
        topo = NoPTopology(kind, w, h)
        coords = {topo.cell(x, y): (x, y)
                  for x in range(w) for y in range(h)}
        want = [min((topo.hops(coords[t], coords[s]) for s in sources),
                    default=w + h) for t in targets]
        assert topo.nearest_hops(sources, targets) == want

    def test_torus_wraparound_shortens_hop_map(self):
        # (5,0) reaches (0,0) in one x-wrap hop where the open mesh
        # needs five.
        sources = [(0, 0), (4, 5)]
        assert NoPTopology("torus", 6, 6).min_hop_map(sources)[5][0] == 1
        assert min_hop_map(6, 6, sources)[5][0] == 5

    def test_empty_sources_yield_unreachable_sentinel(self):
        for kind in TOPOLOGY_KINDS:
            topo = NoPTopology(kind, 4, 4)
            assert topo.min_hop_map([]) == [[8] * 4 for _ in range(4)]

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="mesh, torus"):
            NoPTopology("ring", 6, 6)


class TestTopologyParsing:
    def test_plain_kinds(self):
        assert parse_topology("mesh") == ("mesh", None)
        assert parse_topology("torus") == ("torus", None)
        assert parse_topology("  TORUS ") == ("torus", None)

    def test_explicit_grids(self):
        assert parse_topology("torus-8x8") == ("torus", (8, 8))
        assert parse_topology("mesh-12X10") == ("mesh", (12, 10))

    def test_canonical_tokens(self):
        assert canonical_topology("Torus") == "torus"
        assert canonical_topology("MESH-8X8") == "mesh-8x8"

    def test_unknown_kind_lists_choices(self):
        with pytest.raises(ValueError, match="mesh, torus"):
            parse_topology("ring")
        with pytest.raises(ValueError, match="torus-8x8"):
            parse_topology("hypercube-4x4")

    def test_malformed_grids_rejected(self):
        for bad in ("torus-8", "torus-8x", "mesh-ax8", "mesh-8x8x8"):
            with pytest.raises(ValueError, match="KIND-WxH"):
                parse_topology(bad)
        for bad in ("mesh-7x6", "torus-2x3", "mesh-0x6"):
            with pytest.raises(ValueError, match="even"):
                parse_topology(bad)

    def test_topology_for_resolves_npus(self):
        assert topology_for(None, 2) == NoPTopology("mesh", 12, 6)
        assert topology_for("torus", 2) == NoPTopology("torus", 12, 6)
        assert topology_for("torus-8x8", 1) == NoPTopology("torus", 8, 8)
        with pytest.raises(ValueError, match="npus=2"):
            topology_for("torus-8x8", 2)


class TestPackageTopology:
    def test_default_package_topology_is_seed_mesh(self):
        pkg = simba_package()
        assert pkg.topology == NoPTopology("mesh", 6, 6)
        assert pkg.name == "simba-6x6-os"  # seed name unchanged

    def test_explicit_mesh_is_identical_hardware(self):
        default = simba_package(npus=2)
        explicit = simba_package(npus=2, topology="mesh")
        assert explicit.name == default.name
        assert explicit.topology == default.topology
        assert explicit.chiplets == default.chiplets

    def test_torus_package_wraps_hops(self):
        pkg = simba_package(topology="torus")
        a = pkg.at(0, 0).chiplet_id
        b = pkg.at(5, 5).chiplet_id
        assert pkg.hops(a, b) == 2
        # same chiplet grid and quadrant tiling as the mesh
        assert len(pkg) == 36 and pkg.quadrant_count == 4
        assert "torus" in pkg.name

    def test_explicit_grid_package(self):
        pkg = simba_package(topology="mesh-8x8")
        assert len(pkg) == 64
        assert pkg.quadrant_count == 4
        assert all(pkg.quadrant_capacity(q) == 16 for q in range(4))
        assert pkg.at(0, 0).quadrant == 0
        assert pkg.at(4, 0).quadrant == 1
        assert pkg.at(0, 4).quadrant == 2
        assert pkg.at(7, 7).quadrant == 3

    def test_explicit_grid_rejects_multi_npu(self):
        with pytest.raises(ValueError, match="npus=2"):
            simba_package(npus=2, topology="torus-8x8")

    def test_direct_topology_instance_validated_like_tokens(self):
        # A NoPTopology object passed directly must meet the same 2x2
        # quadrant-tiling preconditions the token parser enforces.
        with pytest.raises(ValueError, match="even"):
            simba_package(topology=NoPTopology("torus", 6, 1))
        with pytest.raises(ValueError, match="even"):
            simba_package(topology=NoPTopology("mesh", 5, 5))
        with pytest.raises(ValueError, match="npus=2"):
            simba_package(npus=2, topology=NoPTopology("torus", 8, 8))
        # valid non-standard instances still build
        pkg = simba_package(topology=NoPTopology("torus", 8, 8))
        assert len(pkg) == 64 and pkg.quadrant_count == 4

    def test_mismatched_topology_object_rejected(self):
        from repro.arch import MCMPackage
        pkg = simba_package()
        with pytest.raises(ValueError, match="does not match"):
            MCMPackage("bad", 6, 6, pkg.chiplets, pkg.nop, 1,
                       NoPTopology("mesh", 8, 8))


class TestTopologySchedules:
    def test_torus_schedule_is_valid_and_pipe_equal(self):
        mesh = match_throughput(package=simba_package())
        torus = match_throughput(package=simba_package(topology="torus"))
        # Sharding is topology-independent: identical busy multisets.
        assert torus.pipe_latency_s == mesh.pipe_latency_s
        # Every group stays inside its stage quadrants.
        for name, gs in torus.groups.items():
            if gs.host is not None:
                continue
            stage = torus.workload.find_group(name).stage
            allowed = {c.chiplet_id
                       for q in torus.stage_quadrants[stage]
                       for c in torus.package.quadrant(q)}
            assert set(gs.chiplet_ids) <= allowed

    def test_torus_strictly_reduces_mean_hops(self):
        mesh = match_throughput(package=simba_package())
        torus = match_throughput(package=simba_package(topology="torus"))
        assert torus.nop_avg_hops < mesh.nop_avg_hops
        assert torus.nop_latency_s <= mesh.nop_latency_s
        assert torus.e2e_latency_s <= mesh.e2e_latency_s

    def test_fig9_grid_acceptance_claim(self):
        """Fig. 9 NoP-bandwidth grid: torus < mesh mean hops everywhere,
        at no pipe-latency cost and equal package size."""
        grid = scenario_grid(nop_gbps=(25.0, 50.0, 100.0),
                             topologies=("mesh", "torus"))
        rows = ScenarioSweep(grid).run().rows
        by_topo = {}
        for r in rows:
            by_topo.setdefault(r["topology"], {})[r["nop_gbps"]] = r
        for bw, mesh_row in by_topo["mesh"].items():
            torus_row = by_topo["torus"][bw]
            assert torus_row["nop_avg_hops"] < mesh_row["nop_avg_hops"]
            assert torus_row["pipe_ms"] <= mesh_row["pipe_ms"]
            assert torus_row["used_chiplets"] == mesh_row["used_chiplets"]

    def test_nop_hop_metrics_on_seed_schedule(self):
        schedule = match_throughput(package=simba_package())
        assert schedule.nop_avg_hops > 0
        assert schedule.nop_max_hops >= schedule.nop_avg_hops


class TestTopologyAxis:
    def test_default_key_and_row_have_no_topology(self):
        assert "topo=" not in Scenario().key
        row = run_scenario(Scenario())
        assert "topology" not in row
        assert "nop_avg_hops" not in row

    def test_key_fragment_and_dict_when_set(self):
        s = Scenario(topology="torus")
        assert s.key.endswith("topo=torus")
        assert s.key.startswith(Scenario().key)
        assert s.to_dict()["topology"] == "torus"

    def test_token_canonicalized_on_scenario(self):
        assert Scenario(topology="TORUS-8X8").topology == "torus-8x8"

    def test_bad_token_and_npus_conflict_rejected(self):
        with pytest.raises(ValueError, match="mesh, torus"):
            Scenario(topology="ring")
        with pytest.raises(ValueError, match="npus=2"):
            Scenario(topology="torus-8x8", npus=2)

    def test_explicit_mesh_row_matches_seed_metrics(self):
        base = run_scenario(Scenario())
        mesh = run_scenario(Scenario(topology="mesh"))
        for metric in ("pipe_ms", "e2e_ms", "energy_j", "utilization",
                       "used_chiplets", "shard_steps"):
            assert mesh[metric] == base[metric]
        assert "nop_avg_hops" in mesh  # the comparison column

    def test_torus_rows_match_frozen_fixture(self):
        # The only fixture that pins torus row values (hop counts, NoP
        # latency and energy) rather than keys: reproduced byte for byte.
        grid = scenario_grid(npus=(1, 2, 4), topologies=("torus",),
                             het_ws_budgets=(None, 4))
        assert (ScenarioSweep(grid).run().rows_json() + "\n"
                == TORUS_ROWS.read_text())

    def test_explicit_grid_rows_match_frozen_fixture(self):
        # Non-square grids whose height is not 6: a cell-index slip
        # between ``y * width + x`` and ``x * height + y`` shows here
        # while the ``6*npus x 6`` grids above may hide it.
        grid = scenario_grid(tolerances=(1.0, 1.1),
                             workloads=("default", "lores", "six-camera"),
                             topologies=("mesh-12x10", "torus-10x4",
                                         "torus-8x8", "mesh-4x6"))
        assert (ScenarioSweep(grid).run().rows_json() + "\n"
                == EXPLICIT_GRID_ROWS.read_text())

    def test_grid_expands_topology_innermost(self):
        grid = scenario_grid(tolerances=(1.0, 1.05),
                             topologies=(None, "torus"))
        assert [(s.tolerance, s.topology) for s in grid] == [
            (1.0, None), (1.0, "torus"), (1.05, None), (1.05, "torus")]


class TestTopologyPlanKeying:
    @staticmethod
    def _cold():
        from repro.core import clear_plan_cache
        from repro.cost import clear_cache
        clear_cache()
        clear_plan_cache()

    @pytest.mark.parametrize("extra", [{}, {"het_ws_budget": 2}],
                             ids=["matcher", "trunk-dse"])
    def test_torus_runs_warm_from_a_mesh_store(self, extra, tmp_path):
        # Plans price compute only, so a torus scenario (and the trunk
        # DSE it drives) is served every plan by the mesh shards.
        store = tmp_path / "store"
        self._cold()
        mesh = ScenarioSweep([Scenario(tolerance=1.0, **extra)],
                             store_path=store).run()
        torus = [Scenario(tolerance=1.0, topology="torus", **extra)]
        self._cold()
        cold = ScenarioSweep(torus).run()
        self._cold()
        warm = ScenarioSweep(torus, store_path=store).run()
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.store_hits > 0
        assert warm.rows_json() == cold.rows_json()
        # ... and the trunk DSE picks the same mapping on both.
        trunk = [k for k in mesh.rows[0] if k.startswith("trunk_")]
        assert bool(trunk) == bool(extra)
        assert ([warm.rows[0][k] for k in trunk]
                == [mesh.rows[0][k] for k in trunk])

    def test_explicit_mesh_shares_seed_plans(self, tmp_path):
        # topology="mesh" is the seed geometry: it warm-starts from a
        # default-scenario store with 0 misses.
        store = tmp_path / "store"
        self._cold()
        ScenarioSweep([Scenario(tolerance=1.0)], store_path=store).run()
        self._cold()
        warm = ScenarioSweep([Scenario(tolerance=1.0, topology="mesh")],
                             store_path=store).run()
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.store_hits > 0


class TestTopologyScalingReport:
    def test_report_gains_topology_columns(self):
        from repro.experiments import scaling
        report = scaling.run(npus=(1, 2), dram_gbps=(None,),
                             topologies=("mesh", "torus"))
        assert report["axes"]["topologies"] == ["mesh", "torus"]
        rows = report["rows"]
        assert all("topology" in r and "nop_avg_hops" in r for r in rows)
        mesh = {r["npus"]: r for r in rows if r["topology"] == "mesh"}
        torus = {r["npus"]: r for r in rows if r["topology"] == "torus"}
        for n in (1, 2):
            assert torus[n]["nop_avg_hops"] < mesh[n]["nop_avg_hops"]
            assert torus[n]["pipe_ms"] <= mesh[n]["pipe_ms"]

    def test_default_report_has_no_topology_columns(self):
        from repro.experiments import scaling
        report = scaling.run(npus=(1,), dram_gbps=(None,))
        assert "topologies" not in report["axes"]
        assert all("topology" not in r for r in report["rows"])
