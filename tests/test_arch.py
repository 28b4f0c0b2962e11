"""Unit tests for the MCM package and NoP cost model."""

import dataclasses

import pytest

from repro.arch import MCMPackage, NoPConfig, simba_package, transfer_cost
from repro.cost import nvdla_chiplet


class TestPackage:
    def test_simba_6x6_dimensions(self):
        pkg = simba_package()
        assert len(pkg) == 36
        assert pkg.total_pes == 9216  # paper: matches the Tesla NPU budget
        assert pkg.quadrant_count == 4

    def test_quadrants_are_3x3(self):
        pkg = simba_package()
        for q in range(4):
            assert pkg.quadrant_capacity(q) == 9

    def test_quadrant_membership_geometry(self):
        pkg = simba_package()
        assert pkg.at(0, 0).quadrant == 0
        assert pkg.at(3, 0).quadrant == 1
        assert pkg.at(0, 3).quadrant == 2
        assert pkg.at(5, 5).quadrant == 3

    def test_dual_npu_package(self):
        pkg = simba_package(npus=2)
        assert len(pkg) == 72
        assert pkg.quadrant_count == 8
        assert pkg.at(6, 0).quadrant == 4  # second module's first quadrant

    def test_hop_distance_is_manhattan(self):
        pkg = simba_package()
        a = pkg.at(0, 0).chiplet_id
        b = pkg.at(3, 2).chiplet_id
        assert pkg.hops(a, b) == 5
        assert pkg.hops(a, a) == 0

    def test_heterogeneous_replacement(self):
        # Replacement rewrites whole quadrants: a quadrant is one engine.
        pkg = simba_package()
        ws = nvdla_chiplet()
        het = pkg.with_accels({c.chiplet_id: ws for c in pkg.quadrant(3)})
        assert het.at(3, 3).dataflow == "ws"
        assert het.engine(3) is ws
        assert het.at(0, 0).dataflow == "os"
        assert pkg.at(3, 3).dataflow == "os"  # original untouched

    def test_replacement_rejects_off_mesh_coords(self):
        # id 36 is one past the 6x6 mesh
        with pytest.raises(KeyError, match="not in package"):
            simba_package().with_accels({36: nvdla_chiplet()})

    def test_rejects_a_quadrant_with_two_engines(self):
        # Stage i owns local quadrant i of every module, so all of those
        # chiplets run one engine.
        chiplets = list(simba_package().chiplets)
        chiplets[35] = chiplets[35].with_accel(nvdla_chiplet())
        with pytest.raises(ValueError, match="one engine"):
            MCMPackage("mixed", 6, 6, chiplets)
        # two NPUs whose trunk quadrants differ
        chiplets = [c.with_accel(nvdla_chiplet()) if c.quadrant == 3 else c
                    for c in simba_package(npus=2).chiplets]
        with pytest.raises(ValueError, match="one engine"):
            MCMPackage("split", 12, 6, chiplets, npus=2)

    def test_rejects_chiplets_out_of_id_order(self):
        # chiplet(i) indexes the list: reversed, chiplet(0) would be 35.
        chiplets = simba_package().chiplets[::-1]
        with pytest.raises(ValueError, match="listed by id"):
            MCMPackage("reversed", 6, 6, chiplets)

    def test_rejects_stacked_coordinates(self):
        chiplets = [dataclasses.replace(c, x=0, y=0)
                    for c in simba_package().chiplets]
        with pytest.raises(ValueError, match="exactly once"):
            MCMPackage("stacked", 6, 6, chiplets)

    def test_rejects_off_grid_coordinates(self):
        # Flat hop-table cells would alias these onto other chiplets.
        chiplets = [dataclasses.replace(c, x=c.x + 6)
                    for c in simba_package().chiplets]
        with pytest.raises(ValueError, match="exactly once"):
            MCMPackage("shifted", 6, 6, chiplets)


class TestNoP:
    def test_paper_parameters(self):
        nop = NoPConfig()
        assert nop.bandwidth_bytes_per_s == 100.0e9  # 100 GB/s/chiplet
        assert nop.hop_latency_s == 35.0e-9          # 35 ns/hop
        assert nop.energy_pj_per_bit == 2.04         # 2.04 pJ/bit

    def test_transfer_latency_formula(self):
        # latency = hops * (bytes/BW + hop latency): the paper's
        # store-and-forward serialization.
        t = transfer_cost(100_000_000, 2)
        assert t.latency_s == pytest.approx(2 * (1e-3 + 35e-9))

    def test_transfer_energy_formula(self):
        t = transfer_cost(1000, 3)
        assert t.energy_j == pytest.approx(1000 * 8 * 2.04e-12 * 3)

    def test_zero_hops_is_free(self):
        t = transfer_cost(123456, 0)
        assert t.latency_s == 0.0
        assert t.energy_j == 0.0

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            transfer_cost(-1, 1)
        with pytest.raises(ValueError):
            transfer_cost(1, -1)
