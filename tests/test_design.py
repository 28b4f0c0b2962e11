"""Tests for the repro.design joint package-design search.

Locks the search's load-bearing properties: Pareto dominance math
(stable order, ties survive, the sort-and-sweep agrees with the pairwise
definition), canonical space declaration, the package key (equal keys
build equal packages, and each distinct package is built once), the
optimistic-bound contract of the roofline proxy (pruning never discards
a design whose materialized metrics meet the target), and the frontier
report's byte-identity across cold runs.
"""

from __future__ import annotations

import json
import math
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import best_ranked
from repro.cost import evaluate
from repro.design import (
    DesignSearch,
    DesignSpace,
    DesignTargets,
    axis_token,
    dominated_indices,
    dominates,
    pareto_indices,
    proxy_objectives,
)
from repro.design.search import stage_chains
from repro.sweep import Scenario, ScenarioSweep, scenario_grid
from repro.sweep.axes import AXIS_SPECS

FROZEN_PROXIES = (pathlib.Path(__file__).parent / "data"
                  / "frozen_design_proxies.json")

#: perfbench's seed-0 design space (``perfbench/grids.py``): 768
#: candidates, searched with a 200 ms pipe target.
PERFBENCH_AXES = {
    "tolerance": "1.0,1.05",
    "nop_gbps": "25,100",
    "npus": "1,2",
    "workload": "default,lores,six-camera",
    "dataflow": "os,ws",
    "frequency_ghz": "1.0,2.0",
    "native_tile": "16x16,8x8",
    "dram_gbps": "none,6",
    "topology": "mesh,torus",
}


def _cold():
    from repro.core import clear_plan_cache
    from repro.cost import clear_cache
    clear_cache()
    clear_plan_cache()


# ----------------------------------------------------------------------
# Pareto dominance
# ----------------------------------------------------------------------

class TestPareto:
    def test_dominates_requires_strict_improvement(self):
        assert dominates((1.0, 2.0), (1.0, 3.0))
        assert dominates((0.5, 2.0), (1.0, 2.0))
        assert not dominates((1.0, 2.0), (1.0, 2.0))  # exact tie
        assert not dominates((1.0, 3.0), (2.0, 2.0))  # trade-off

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            dominates((1.0,), (1.0, 2.0))

    def test_frontier_preserves_input_order(self):
        points = [(3.0, 1.0), (2.0, 2.0), (1.0, 3.0), (4.0, 4.0)]
        assert pareto_indices(points) == [0, 1, 2]
        assert dominated_indices(points) == [3]

    def test_duplicates_all_survive(self):
        # A tie is not a strict improvement, so exact duplicates never
        # dominate each other — both reach the frontier, in order.
        points = [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)]
        assert pareto_indices(points) == [0, 1]

    def test_single_point_is_frontier(self):
        assert pareto_indices([(5.0, 5.0)]) == [0]
        assert pareto_indices([]) == []

    # A small pool, so ties, exact duplicates, equal-x groups and -0.0
    # against 0.0 are drawn on purpose.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(points=st.lists(
        st.tuples(*[st.sampled_from((-0.0, 0.0, 1.0, 2.5, math.inf))] * 2),
        max_size=12))
    @example(points=[(0.0, 2.5), (-0.0, 1.0), (-0.0, 1.0), (1.0, -0.0),
                     (1.0, 0.0), (math.inf, -0.0)])
    def test_sweep_matches_pairwise_reference(self, points):
        reference = [i for i, p in enumerate(points)
                     if not any(dominates(q, p)
                                for j, q in enumerate(points) if j != i)]
        assert pareto_indices(points) == reference

    @pytest.mark.parametrize("points", [
        [(1.0,)],
        [(1.0, 2.0, 3.0)],
        [(1.0, 2.0), (1.0, 2.0, 3.0)],
    ])
    def test_only_two_objectives_accepted(self, points):
        with pytest.raises(ValueError, match="two objectives"):
            pareto_indices(points)

    def test_nan_objective_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            pareto_indices([(1.0, 2.0), (math.nan, 1.0)])


# ----------------------------------------------------------------------
# best_ranked (the rank-then-materialize primitive)
# ----------------------------------------------------------------------

class TestBestRanked:
    def test_first_seen_min_wins(self):
        rank, payload = best_ranked([((2.0,), "b"), ((1.0,), "a"),
                                     ((1.0,), "late-tie")])
        assert rank == (1.0,)
        assert payload == "a"

    def test_none_ranks_skipped(self):
        rank, payload = best_ranked([(None, "x"), ((3.0,), "y")])
        assert payload == "y"

    def test_empty_yields_none(self):
        assert best_ranked([]) == (None, None)
        assert best_ranked([(None, "x")]) == (None, None)


# ----------------------------------------------------------------------
# DesignSpace declarations
# ----------------------------------------------------------------------

class TestDesignSpace:
    def test_axes_reorder_canonically(self):
        # Construction order must not matter: two declarations of the
        # same space enumerate (and report) identically.
        a = DesignSpace(axes=(("dataflow", ("os", "ws")),
                              ("tolerance", (1.0, 1.1))))
        b = DesignSpace(axes=(("tolerance", (1.0, 1.1)),
                              ("dataflow", ("os", "ws"))))
        assert a == b
        assert [name for name, _ in a.axes] == ["tolerance", "dataflow"]
        assert a.size == 4
        assert [s.key for s in a.candidates()] \
            == [s.key for s in b.candidates()]

    def test_candidates_match_scenario_grid(self):
        space = DesignSpace(axes=(("npus", (1, 2)),))
        assert [s.key for s in space.candidates()] \
            == [s.key for s in scenario_grid(npus=[1, 2])]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown design axis"):
            DesignSpace(axes=(("chiplets", (1,)),))

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate design axis"):
            DesignSpace(axes=(("npus", (1,)), ("npus", (2,))))

    def test_empty_declarations_rejected(self):
        with pytest.raises(ValueError, match="at least one axis"):
            DesignSpace(axes=())
        with pytest.raises(ValueError, match="has no values"):
            DesignSpace(axes=(("npus", ()),))

    def test_from_axis_texts_uses_sweep_grammar(self):
        space = DesignSpace.from_axis_texts({
            "native_tile": "16x16,8x8",
            "hetero": "none,trunk:ws",
        })
        by_name = dict(space.axes)
        assert by_name["native_tile"] == ((16, 16), (8, 8))
        assert by_name["hetero"] == (None, "trunk:ws")
        assert space.to_dict() == {
            "native_tile": ["16x16", "8x8"],
            "hetero": ["none", "trunk:ws"],
        }

    def test_axis_token_forms(self):
        assert axis_token("dram_gbps", None) == "none"
        assert axis_token("frequency_ghz", 1.5) == "1.5"
        assert axis_token("native_tile", (16, 16)) == "16x16"
        assert axis_token("npus", 2) == "2"


# ----------------------------------------------------------------------
# Targets
# ----------------------------------------------------------------------

class TestDesignTargets:
    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="pipe_ms"):
            DesignTargets(pipe_ms=0.0)
        with pytest.raises(ValueError, match="energy_j"):
            DesignTargets(energy_j=-1.0)
        with pytest.raises(ValueError, match="pipe_ms"):
            DesignTargets(pipe_ms=float("nan"))
        with pytest.raises(ValueError, match="energy_j"):
            DesignTargets(energy_j=float("nan"))

    def test_admits(self):
        targets = DesignTargets(pipe_ms=50.0, energy_j=2.0)
        assert targets.admits(50.0, 2.0)
        assert not targets.admits(50.1, 2.0)
        assert not targets.admits(50.0, 2.1)
        assert DesignTargets().admits(1e9, 1e9)


# ----------------------------------------------------------------------
# The search
# ----------------------------------------------------------------------

class TestDesignSearch:
    @pytest.fixture()
    def small_space(self):
        return DesignSpace.from_axis_texts({
            "dataflow": "os,ws",
            "frequency_ghz": "1.0,2.0",
        })

    def test_stats_partition_the_space(self, small_space):
        _cold()
        result = DesignSearch(small_space,
                              DesignTargets(pipe_ms=100.0)).run()
        stats = result.stats()
        assert stats["candidates"] == 4
        assert stats["pruned"] + stats["dominated"] + stats["frontier"] \
            == stats["candidates"]
        assert stats["materialized"] == stats["frontier"] == \
            len(result.rows) == len(result.frontier)
        assert stats["priced_pairs"] > 0

    def test_priced_pairs_count_each_distinct_pair_once(self):
        # Candidates differing only in tolerance build the same workload
        # and package: the space prices one candidate's pairs, once.
        _cold()
        layers = set(Scenario().build().workload.all_layers())
        one = DesignSearch(DesignSpace.from_axis_texts(
            {"tolerance": "1.05"})).run()
        two = DesignSearch(DesignSpace.from_axis_texts(
            {"tolerance": "1.05,1.2"})).run()
        assert one.priced_pairs == two.priced_pairs == len(layers)
        # A trunk-DSE budget adds the DSE's two candidate engines.
        het = DesignSearch(DesignSpace.from_axis_texts(
            {"het_ws_budget": "2"})).run()
        assert het.priced_pairs == 3 * len(layers)

    def test_proxy_is_an_optimistic_bound(self, small_space):
        # The contract target pruning rides on: the proxy never exceeds
        # the materialized metric, so pruning on it never discards a
        # design whose real metrics would have met the target.  The
        # second space holds every whole-quadrant override on each
        # quadrant, on one and two NPUs.
        hetero_space = DesignSpace.from_axis_texts({
            "npus": "1,2",
            "hetero": ",".join(
                ["none", "temporal:@1.5+fe:/8x8"]
                + [f"{quadrant}:{spec}"
                   for quadrant in ("fe", "spatial", "temporal", "trunk")
                   for spec in ("ws", "@1", "/8x8")]),
        })
        for space in (small_space, hetero_space):
            _cold()
            result = DesignSearch(space).run()
            by_key = {row["key"]: row
                      for row in ScenarioSweep(space.candidates()).run().rows}
            for candidate in result.candidates:
                row = by_key[candidate.scenario.key]
                assert candidate.proxy_pipe_ms <= row["pipe_ms"] + 1e-9
                assert candidate.proxy_energy_j <= row["energy_j"] + 1e-9

    def test_only_frontier_is_materialized(self, small_space):
        _cold()
        result = DesignSearch(small_space,
                              DesignTargets(pipe_ms=100.0)).run()
        assert 0 < len(result.rows) < len(result.candidates)
        materialized = {row["key"] for row in result.rows}
        assert materialized == {c.scenario.key for c in result.frontier}
        for candidate in result.frontier:
            assert not candidate.pruned

    def test_everything_pruned_yields_empty_frontier(self, small_space):
        _cold()
        result = DesignSearch(small_space,
                              DesignTargets(pipe_ms=0.001)).run()
        assert result.frontier == [] and result.rows == []
        assert result.plan_cache.lookups == 0 and result.best is None
        stats = result.stats()
        assert stats["pruned"] == stats["candidates"]
        assert stats["materialized_fraction"] == 0.0
        report = result.report()
        assert report["frontier"] == [] and report["best"] is None

    def test_best_is_lowest_materialized_edp(self, small_space):
        _cold()
        result = DesignSearch(small_space).run()
        assert result.best["edp_j_ms"] == \
            min(row["edp_j_ms"] for row in result.rows)
        assert result.report()["best"] == result.best["key"]

    def test_report_byte_identical_across_cold_runs(self):
        space = DesignSpace.from_axis_texts({
            "dataflow": "os,ws",
            "hetero": "none,trunk:ws",
        })
        documents = []
        for _ in range(2):
            _cold()
            result = DesignSearch(space, DesignTargets(pipe_ms=200.0)).run()
            assert result.plan_cache.misses > 0
            documents.append(json.dumps(result.report(), indent=2,
                                        sort_keys=True))
        assert documents[0] == documents[1]

    def test_hetero_rows_gate_their_columns(self):
        _cold()
        space = DesignSpace.from_axis_texts({"hetero": "none,trunk:ws"})
        report = DesignSearch(space).run().report()
        kinds = set()
        for entry in report["frontier"]:
            # to_dict() leaves an unset hetero out
            has_hetero = entry["scenario"].get("hetero") is not None
            kinds.add(has_hetero)
            assert ("package_composition" in entry) == has_hetero
        assert kinds == {True, False}

    def test_one_workload_build_per_variant_and_frontier_row(
            self, monkeypatch):
        # Ranking builds each workload variant once, and the frontier
        # rows reuse those builds.  Nothing carries over between runs, so
        # a second cold run builds exactly as often.
        import repro.sweep.scenario as scenario_module
        build = scenario_module.build_perception_workload
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(scenario_module, "build_perception_workload",
                            counting)
        # The proxy ignores the tolerance, so both tolerances of the
        # best design tie on the frontier with one workload variant.
        space = DesignSpace.from_axis_texts({
            "workload": "default,lores",
            "npus": "1,2",
            "dataflow": "os,ws",
            "tolerance": "1.0,1.05",
        })
        variants = 2
        for _ in range(2):
            _cold()
            calls.clear()
            result = DesignSearch(space).run()
            assert len(result.candidates) == 16
            frontier_variants = {c.scenario.workload
                                 for c in result.frontier}
            assert len(result.frontier) > len(frontier_variants)
            assert len(calls) == variants


# ----------------------------------------------------------------------
# Package key: the search builds each distinct package once
# ----------------------------------------------------------------------

#: small value pools over every scenario axis.
AXIS_POOLS = {
    "tolerance": (1.0, 1.05),
    "nop_gbps": (None, 50.0, 100.0),
    "npus": (1, 2),
    "workload": ("default", "lores"),
    "het_ws_budget": (None, 2, 4),
    "dataflow": (None, "os", "ws"),
    "frequency_ghz": (None, 1.0, 2.0),
    "native_tile": (None, (16, 16), (8, 8)),
    "dram_gbps": (None, 6.0),
    "topology": (None, "mesh", "torus", "mesh-4x4", "torus-8x8"),
    "hetero": (None, "trunk:ws", "fe:@1", "temporal:@1.5+fe:/8x8"),
}


#: two values of each axis package() reads that build unequal packages.
KEY_FIELD_VALUES = {
    "npus": (1, 2),
    "nop_gbps": (None, 50.0),
    "dataflow": ("os", "ws"),
    "frequency_ghz": (None, 1.0),
    "native_tile": (None, (8, 8)),
    "topology": (None, "torus"),
    "hetero": (None, "trunk:ws"),
}


def _scenario(axes: dict) -> Scenario:
    # An explicit KIND-WxH grid fixes the package size on its own.
    if axes["topology"] is not None and "-" in axes["topology"]:
        axes = {**axes, "npus": 1}
    return Scenario(**axes)


@st.composite
def scenario_pairs(draw):
    """Two scenarios, the second redrawing up to three of the first's
    axes, so pairs that share a package key are common."""
    first = {axis: draw(st.sampled_from(pool))
             for axis, pool in AXIS_POOLS.items()}
    second = dict(first)
    for axis in draw(st.lists(st.sampled_from(sorted(AXIS_POOLS)),
                              max_size=3, unique=True)):
        second[axis] = draw(st.sampled_from(AXIS_POOLS[axis]))
    return _scenario(first), _scenario(second)


class TestPackageKey:
    def test_pools_cover_every_axis(self):
        assert set(AXIS_POOLS) == set(AXIS_SPECS)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pair=scenario_pairs())
    def test_equal_keys_build_equal_packages(self, pair):
        a, b = pair
        if a.package_key() == b.package_key():
            assert a.package() == b.package()

    @pytest.mark.parametrize("axis", list(KEY_FIELD_VALUES))
    def test_every_key_field_is_needed(self, axis):
        # The proxy never reads the NoP, so only the packages themselves
        # can show that a key without nop_gbps would be wrong.
        first, second = KEY_FIELD_VALUES[axis]
        a, b = Scenario(**{axis: first}), Scenario(**{axis: second})
        assert a.package() != b.package()
        assert a.package_key() != b.package_key()

    def test_proxies_match_freshly_built_packages(self):
        _cold()
        space = DesignSpace.from_axis_texts({
            "workload": "default,lores",
            "tolerance": "1.0,1.05",
            "dram_gbps": "none,6",
            "dataflow": "os,ws",
            "hetero": "none,trunk:ws",
        })
        result = DesignSearch(space).run()
        workloads = {}
        for candidate in result.candidates:
            # build() builds a fresh package, sharing only the workloads.
            build = candidate.scenario.build(workloads)
            workload, package = build.workload, build.package
            accels = dict.fromkeys(
                map(package.engine, range(package.quadrant_count)))
            costs = {(layer, accel): evaluate(layer, accel)
                     for layer in workload.all_layers() for accel in accels}
            chains = stage_chains(workload, accels, costs)
            assert proxy_objectives(workload, package, chains) \
                == (candidate.proxy_pipe_ms, candidate.proxy_energy_j)

    def test_perfbench_space_builds_each_package_once(self, monkeypatch):
        # perfbench's seed-0 design space: 768 candidates over 64
        # distinct packages and 192 (variant, package) pairs.  Ranking
        # builds each package once and scores each pair once; the 32
        # frontier rows find their packages in the search's run tables,
        # and come from 4 allocations on 2 package geometries, so they
        # place 8 times.  Nothing carries over between runs, so a second
        # cold run counts the same.
        import repro.core.throughput as throughput_module
        import repro.design.search as search_module
        import repro.sweep.scenario as scenario_module
        calls = {"simba_package": 0, "proxy_objectives": 0, "place": 0}

        def count(module, name):
            original = getattr(module, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)

        count(scenario_module, "simba_package")
        count(search_module, "proxy_objectives")
        count(throughput_module, "place")
        space = DesignSpace.from_axis_texts(PERFBENCH_AXES)
        for _ in range(2):
            _cold()
            calls.update(dict.fromkeys(calls, 0))
            result = DesignSearch(space, DesignTargets(pipe_ms=200.0)).run()
            assert len(result.candidates) == 768
            assert len(result.frontier) == 32
            assert calls == {"simba_package": 64, "proxy_objectives": 192,
                             "place": 8}


class TestPricingWork:
    def test_perfbench_space_prices_without_building_layers(self,
                                                            monkeypatch):
        # A cold search prices 142 named layers (the frontier rows' group
        # chains) and 903 distinct (shape, engine) pairs: 720 while
        # ranking, the rest as row bands.  The pricing kernel reads the
        # shape tuple, so no Layer is built while pricing.
        import sys

        from repro.cost import evaluate_shape
        from repro.workloads import Layer
        pricing = {evaluate.__wrapped__.__code__,
                   evaluate_shape.__wrapped__.__code__}
        built = {"while_pricing": 0}
        post_init = Layer.__post_init__

        def counting(layer):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code in pricing:
                    built["while_pricing"] += 1
                    break
                frame = frame.f_back
            post_init(layer)

        monkeypatch.setattr(Layer, "__post_init__", counting)
        _cold()
        result = DesignSearch(DesignSpace.from_axis_texts(PERFBENCH_AXES),
                              DesignTargets(pipe_ms=200.0)).run()
        named, shaped = evaluate.cache_info(), evaluate_shape.cache_info()
        assert (named.hits, named.misses) == (0, 142)
        assert (shaped.hits, shaped.misses) == (750, 903)
        assert result.priced_pairs == 1464
        assert built == {"while_pricing": 0}


class TestFrozenProxies:
    """Bit-identity lock on the proxy phase.

    Every candidate's unrounded proxy objectives (as ``repr``) and
    pruning verdict, the priced-pair count and the full report of a
    32-candidate space spanning workload variants, package sizes,
    topologies, a whole-quadrant override and trunk-DSE budgets.  The
    proxy sums floats with left folds, never ``sum()`` (compensated from
    Python 3.12 on), so every interpreter matches the ``plain_sum`` list.
    """

    def test_proxies_match_frozen_fixture(self):
        _cold()
        space = DesignSpace.from_axis_texts({
            "workload": "default,lores",
            "npus": "1,2",
            "topology": "mesh,torus",
            "hetero": "none,trunk:ws",
            "het_ws_budget": "none,2",
        })
        result = DesignSearch(space, DesignTargets(pipe_ms=200.0)).run()
        assert result.priced_pairs == 684
        candidates = [
            {"key": c.scenario.key,
             "proxy_pipe_ms": repr(c.proxy_pipe_ms),
             "proxy_energy_j": repr(c.proxy_energy_j),
             "pruned": c.pruned}
            for c in result.candidates]
        doc = {"candidates": {"plain_sum": candidates},
               "priced_pairs": result.priced_pairs,
               "report": result.report()}
        assert (json.dumps(doc, indent=2, sort_keys=True) + "\n"
                == FROZEN_PROXIES.read_text())
