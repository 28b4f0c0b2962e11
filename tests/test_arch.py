"""Unit tests for the MCM package and NoP cost model."""

import pytest

from repro.arch import (
    QUADRANT_NAMES,
    MCMPackage,
    NoPConfig,
    QuadrantOverrides,
    package_composition,
    simba_package,
    topology_for,
    transfer_cost,
)
from repro.arch.topology import chiplet_grid
from repro.cost import nvdla_chiplet, simba_chiplet


class TestPackage:
    def test_simba_6x6_dimensions(self):
        pkg = simba_package()
        assert len(pkg) == 36
        assert pkg.total_pes == 9216  # paper: matches the Tesla NPU budget
        assert len(pkg.grid.quadrants) == 4

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
        assert len(pkg.grid.quadrants) == 8
        assert pkg.at(6, 0).quadrant == 4  # second module's first quadrant

    def test_hop_distance_is_manhattan(self):
        pkg = simba_package()
        a = pkg.at(0, 0).chiplet_id
        b = pkg.at(3, 2).chiplet_id
        assert pkg.hops(a, b) == 5
        assert pkg.hops(a, a) == 0

    def test_heterogeneous_replacement(self):
        # Replacement swaps whole quadrants: a quadrant is one engine.
        pkg = simba_package()
        ws = nvdla_chiplet()
        het = pkg.with_engines({3: ws})
        assert het.engine(het.at(3, 3).quadrant) is ws
        assert het.engine(3) is ws
        assert het.engine(het.at(0, 0).quadrant).dataflow == "os"
        assert pkg.engine(pkg.at(3, 3).quadrant).dataflow == "os"  # untouched
        assert het.grid is pkg.grid  # the chiplet slots are shared

    def test_replacement_rejects_off_mesh_coords(self):
        # Engines are per local quadrant: 4 is one past a module's four.
        with pytest.raises(KeyError, match="not in package"):
            simba_package().with_engines({4: nvdla_chiplet()})
        with pytest.raises(KeyError, match="not in package"):
            simba_package(npus=2).with_engines({7: nvdla_chiplet()})

    def test_rejects_an_engine_tuple_of_the_wrong_length(self):
        pkg = simba_package(npus=2)
        with pytest.raises(ValueError, match="5 engines for 4"):
            MCMPackage("five", pkg.grid, pkg.engines + (nvdla_chiplet(),))
        with pytest.raises(ValueError, match="8 engines for 4"):
            MCMPackage("per-module", pkg.grid, pkg.engines * 2)


#: Per-cell package construction before packages shared one chiplet
#: grid, kept as the reference for
#: :func:`repro.arch.topology.chiplet_grid`.

def _quadrant_of(x, y):
    """Standard tiling: 3x3 blocks of each 6x6 module, row-major."""
    module = x // 6
    lx = x % 6
    return 4 * module + (y // 3) * 2 + (lx // 3)


def _grid_quadrant_of(x, y, width, height):
    """Explicit ``WxH`` grid: 2x2 blocks, row-major."""
    return (y // (height // 2)) * 2 + (x // (width // 2))


def _reference_chiplets(topo, npus):
    """``(id, x, y, quadrant)`` of every chiplet, in id order."""
    standard = (topo.width, topo.height) == (6 * npus, 6)
    chiplets = []
    cid = 0
    for y in range(topo.height):
        for x in range(topo.width):
            quad = (_quadrant_of(x, y) if standard
                    else _grid_quadrant_of(x, y, topo.width, topo.height))
            chiplets.append((cid, x, y, quad))
            cid += 1
    return chiplets


#: every (topology token, npus) shape a package can take here
SHAPES = [(token, npus) for token in (None, "torus") for npus in (1, 2, 4)] \
    + [("mesh-8x8", 1), ("torus-6x4", 1)]


class TestChipletGrid:
    @pytest.mark.parametrize("token, npus", SHAPES)
    def test_grid_matches_per_cell_construction(self, token, npus):
        pkg = simba_package(npus=npus, topology=token)
        topo = topology_for(token, npus)
        ref = _reference_chiplets(topo, npus)
        assert [(c.chiplet_id, c.x, c.y, c.quadrant)
                for c in pkg.chiplets] == ref
        assert len(pkg.grid.quadrants) == max(q for *_, q in ref) + 1
        for q in range(len(pkg.grid.quadrants)):
            assert [c.chiplet_id for c in pkg.quadrant(q)] == [
                cid for cid, _, _, quad in ref if quad == q]
        assert pkg.grid.cells == tuple(topo.cell(x, y)
                                       for _, x, y, _ in ref)

    @pytest.mark.parametrize("token, npus", SHAPES)
    @pytest.mark.parametrize("hetero", [None, "trunk:ws@1.2+temporal:@1.5"])
    def test_engines_match_per_chiplet_configs(self, token, npus, hetero):
        # The reference gives every chiplet its own config: the base one,
        # or its quadrant's override in every module.
        pkg = simba_package(npus=npus, topology=token)
        base = simba_chiplet("os")
        spec = None
        if hetero is not None:
            spec = QuadrantOverrides.parse(hetero)
            pkg = spec.apply(pkg)
        ref = _reference_chiplets(topology_for(token, npus), npus)
        accels = []
        for *_, quad in ref:
            override = spec and spec.get(QUADRANT_NAMES[quad % 4])
            accels.append(override.apply(base) if override else base)
        for q in range(len(pkg.grid.quadrants)):
            members = [a for (*_, quad), a in zip(ref, accels) if quad == q]
            assert pkg.quadrant_capacity(q) == len(members)
            assert all(pkg.engine(q) == a for a in members)
        first = {}
        for (*_, quad), a in zip(ref, accels):
            first.setdefault(quad, a)
        assert package_composition(pkg) == "|".join(
            f"{name}:{first[local].hw_token}"
            for local, name in enumerate(QUADRANT_NAMES))
        assert pkg.total_pes == sum(a.pe_count for a in accels)

    def test_one_grid_per_shape(self):
        # Packages of one shape share the memo's grid; a grid built
        # apart from the memo still compares and hashes by its shape.
        a = simba_package(npus=2, topology="torus")
        b = simba_package(npus=2, accel=nvdla_chiplet(), topology="torus",
                          nop=NoPConfig(bandwidth_bytes_per_s=25e9))
        assert a.grid is b.grid
        apart = chiplet_grid.__wrapped__(a.topology, 2)
        assert apart is not a.grid
        assert apart == a.grid and hash(apart) == hash(a.grid)
        assert a.grid != simba_package(npus=2).grid
        assert a.grid != simba_package(npus=1, topology="torus").grid


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
