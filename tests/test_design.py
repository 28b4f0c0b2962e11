"""Tests for the repro.design joint package-design search.

Locks the search's load-bearing properties: Pareto dominance math
(stable order, ties survive), canonical space declaration, the
optimistic-bound contract of the roofline proxy (pruning never discards
a design whose materialized metrics meet the target), and the frontier
report's byte-identity across store temperature and worker counts.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core import best_ranked
from repro.design import (
    DesignSearch,
    DesignSpace,
    DesignTargets,
    axis_token,
    dominated_indices,
    dominates,
    pareto_indices,
)
from repro.sweep import Scenario, ScenarioSweep, scenario_grid

FROZEN_PROXIES = (pathlib.Path(__file__).parent / "data"
                  / "frozen_design_proxies.json")


def _cold():
    from repro.core import clear_plan_cache
    from repro.cost import clear_cache
    from repro.sweep import clear_trunk_memo
    clear_cache()
    clear_plan_cache()
    clear_trunk_memo()


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
            "hetero": "none,trunk:ws#4",
        })
        by_name = dict(space.axes)
        assert by_name["native_tile"] == ((16, 16), (8, 8))
        assert by_name["hetero"] == (None, "trunk:ws#4")
        assert space.to_dict() == {
            "native_tile": ["16x16", "8x8"],
            "hetero": ["none", "trunk:ws#4"],
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
        # design whose real metrics would have met the target.
        _cold()
        result = DesignSearch(small_space).run()
        by_key = {row["key"]: row
                  for row in ScenarioSweep(small_space.candidates())
                  .run().rows}
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
        assert result.sweep is None and result.best is None
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

    def test_report_byte_identical_cold_vs_warm_store(self, tmp_path):
        space = DesignSpace.from_axis_texts({
            "dataflow": "os,ws",
            "hetero": "none,trunk:ws#4",
        })
        store = tmp_path / "planstore"
        documents = []
        for _ in range(2):
            _cold()
            result = DesignSearch(space, DesignTargets(pipe_ms=200.0),
                                  store_path=str(store)).run()
            documents.append(json.dumps(result.report(), indent=2,
                                        sort_keys=True))
        assert documents[0] == documents[1]
        # The warm run really was warm — every plan came from the store.
        assert result.sweep.summary()["plan_cache"]["misses"] == 0

    def test_report_byte_identical_serial_vs_parallel(self, small_space):
        _cold()
        serial = DesignSearch(small_space).run().report()
        _cold()
        parallel = DesignSearch(small_space, workers=2).run().report()
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(parallel, sort_keys=True)

    def test_hetero_rows_gate_their_columns(self):
        _cold()
        space = DesignSpace.from_axis_texts({"hetero": "none,trunk:ws#2"})
        report = DesignSearch(space).run().report()
        for entry in report["frontier"]:
            has_hetero = entry["scenario"]["hetero"] is not None
            assert ("package_composition" in entry) == has_hetero

    def test_one_workload_build_per_variant_and_frontier_row(
            self, monkeypatch):
        # Ranking builds each workload variant once; the frontier sweep
        # builds once per variant on the frontier.  Nothing carries over
        # between runs, so a second cold run builds exactly as often.
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
            assert len(calls) == variants + len(frontier_variants)


class TestFrozenProxies:
    """Bit-identity lock on the proxy phase.

    Every candidate's unrounded proxy objectives (as ``repr``) and
    pruning verdict, the priced-pair count and the full report of a
    32-candidate space spanning workload variants, package sizes,
    topologies, partial Het(k) quadrants and trunk-DSE budgets.  The
    proxy sums floats with left folds, never ``sum()`` (compensated from
    Python 3.12 on), so every interpreter matches the ``plain_sum`` list.
    """

    def test_proxies_match_frozen_fixture(self):
        _cold()
        space = DesignSpace.from_axis_texts({
            "workload": "default,lores",
            "npus": "1,2",
            "topology": "mesh,torus",
            "hetero": "none,trunk:ws#4",
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
