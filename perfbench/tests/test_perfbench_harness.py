"""Tests of the benchmark harness itself (spans, percentiles, inputs,
wrappers); they never run a measured workload."""

from __future__ import annotations

import pathlib
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import grids, layers  # noqa: E402
from perfbench.spans import (  # noqa: E402
    Span, Tracer, covered, inclusive_times, nearest_rank, self_times)


# -- self time ---------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [Span("pass", 0, 100),
             Span("plan", 10, 30, parent=0),
             Span("price", 15, 20, parent=1),
             Span("plan", 40, 60, parent=0)]
    assert self_times(spans) == {"pass": 60, "plan": 35, "price": 5}


def test_back_to_back_children_cover_the_whole_parent():
    spans = [Span("match", 0, 100),
             Span("plan", 0, 50, parent=0),
             Span("plan", 50, 100, parent=0)]
    assert self_times(spans) == {"match": 0, "plan": 100}


def test_covered_counts_overlap_once_and_clips_to_the_parent():
    assert covered(10, 100, [(30, 60), (10, 40)]) == 50
    assert covered(10, 100, [(0, 20), (90, 120)]) == 20
    assert covered(10, 100, []) == 0


def test_inclusive_time_counts_only_the_outermost_same_name_span():
    spans = [Span("run", 0, 100),
             Span("merge", 10, 90, parent=0),
             Span("run", 20, 30, parent=1),
             Span("run", 200, 250)]
    assert inclusive_times(spans) == {"run": 150, "merge": 80}


def test_tracer_records_parents_from_nesting():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    tracer.close(tracer.open("next"))
    assert tracer.spans() == [Span("outer", 0, 3, None),
                              Span("inner", 1, 2, 0),
                              Span("next", 4, 5, None)]
    tracer.reset()
    assert tracer.spans() == []


# -- percentiles -------------------------------------------------------

def test_nearest_rank_percentiles():
    values = [float(v) for v in range(10, 0, -1)]
    assert nearest_rank(values, 50) == 5.0
    assert nearest_rank(values, 90) == 9.0
    assert nearest_rank(values, 91) == 10.0
    assert nearest_rank(values, 100) == 10.0
    assert nearest_rank([7.5], 1) == 7.5


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)


# -- seeded inputs -----------------------------------------------------

def test_seed_zero_takes_the_first_values_of_every_pool():
    drawn = grids.draw(grids.SWEEP_POOLS, 0)
    for axis, pool, count in grids.SWEEP_POOLS:
        assert drawn[axis] == list(pool[:count])


def test_seeds_are_deterministic_and_keep_sizes_and_pool_order():
    for pools in (grids.SWEEP_POOLS, grids.DESIGN_POOLS):
        for seed in (1, 7, 12345):
            drawn = grids.draw(pools, seed)
            assert drawn == grids.draw(pools, seed)
            for axis, pool, count in pools:
                assert len(drawn[axis]) == count
                positions = [pool.index(v) for v in drawn[axis]]
                assert positions == sorted(set(positions))
    assert any(grids.draw(grids.SWEEP_POOLS, seed)
               != grids.draw(grids.SWEEP_POOLS, 0) for seed in range(1, 6))


def test_default_inputs_have_the_declared_sizes():
    grid = grids.sweep_grid(0)
    assert len(grid) == 192
    assert [s.key for s in grid] == [s.key for s in grids.sweep_grid(0)]
    assert len(grids.sweep_grid(3)) == 192
    assert grids.design_space(0).size == 768
    assert grids.design_space(3).size == 768


# -- wrappers ----------------------------------------------------------

@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    def price(n):
        return n

    class Matcher:
        def run(self, n):
            return module.price(n) * 2

    module.price = price
    module.Matcher = Matcher
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_missing_targets_are_skipped_and_report_zero_calls(fake_module):
    name = fake_module.__name__
    targets = (
        layers.Target("match", name, "Matcher.run"),
        layers.Target("price", name, "price", tally=layers._returned_int),
        layers.Target("gone", name, "deleted_function"),
        layers.Target("gone", name, "DeletedClass.run"),
        layers.Target("gone", "perfbench_no_such_module", "anything"),
    )
    original_price = fake_module.price
    original_run = fake_module.Matcher.__dict__["run"]
    inst = layers.Instrumentation(Tracer(), targets)
    assert inst.install() == [f"{name}.Matcher.run", f"{name}.price"]
    try:
        assert fake_module.Matcher().run(3) == 6
    finally:
        inst.uninstall()
    names = [span.name for span in inst.tracer.spans()]
    assert names == ["match", "price"]
    assert inst.tracer.spans()[1].parent == 0
    assert inst.tallies[layers.PAIRS_PRICED] == 3
    assert "gone" not in names
    assert fake_module.price is original_price
    assert fake_module.Matcher.__dict__["run"] is original_run


def test_memo_counters_report_every_counter():
    layers.clear_memos()
    counts = layers.memo_counters()
    assert set(counts) == {
        "core.plancache.lookups", "core.plancache.misses",
        "core.plancache.store_hits", "cost.evaluate.lookups",
        "cost.evaluate.misses", "cost.evaluate.seeded"}
    assert all(isinstance(v, int) for v in counts.values())
