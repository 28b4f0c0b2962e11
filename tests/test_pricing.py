"""Layer pricing and delta-sweeps: exactness locks.

Three contracts are locked here:

* ``evaluate()`` prices every layer kind on every dataflow, clock and
  tile override byte-for-byte like the frozen fixture
  ``tests/data/frozen_pricing.json``.
* ``evaluate_shape()``, which prices row bands by shape, matches
  ``evaluate()`` of the band ``split_plane`` cuts on every field but
  ``layer_name``.
* ``ScenarioSweep.run_delta()`` re-prices only the scenarios whose
  content fingerprint moved — zero for an unchanged grid — and its
  merged output is byte-identical to a cold full run.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sharding import _band_shapes, split_plane
from repro.cost import (
    clear_cache,
    evaluate,
    evaluate_shape,
    eyeriss_chiplet,
    monolithic,
    nvdla_chiplet,
    shidiannao_chiplet,
)
from repro.sweep.journal import SweepJournal
from repro.sweep.runner import ScenarioSweep, scenario_fingerprint
from repro.sweep.scenario import scenario_grid
from repro.workloads import (
    Layer,
    LayerKind,
    concat,
    conv,
    deconv,
    dense,
    dwconv,
    eltwise,
    matmul,
    move,
    pool,
    softmax,
)

FIXTURE = pathlib.Path(__file__).parent / "data" / "frozen_pricing.json"


def fixture_layers():
    """One layer per operator class, shaped to hit every mapper branch."""
    return [
        conv("conv3", (56, 56), 64, 32, r=3),
        conv("conv1", (28, 28), 128, 64, r=1, s=1),
        conv("convs2", (28, 28), 96, 48, r=3, stride=2),
        conv("tokens", (1, 197), 768, 768, r=1, s=1),
        dwconv("dw", (28, 28), 96, r=3),
        deconv("up", (56, 56), 32, 64, r=4, stride=2),
        dense("fc", (1, 197), 768, 768),
        matmul("attn", (1, 197), 197, 64),
        softmax("sm", (1, 197), 197),
        pool("pool", (28, 28), 64),
        eltwise("add", (56, 56), 64),
        concat("cat", (28, 28), 192),
        move("lift", (32, 88), 80),
    ]


def fixture_accels():
    """Labeled candidate configs spanning every dataflow and override."""
    return [
        ("os-256", shidiannao_chiplet()),
        ("ws-256", nvdla_chiplet()),
        ("rs-256", eyeriss_chiplet()),
        ("mono-9216", monolithic(9216)),
        ("os-1.5ghz-8x32", shidiannao_chiplet().with_overrides(
            frequency_hz=1.5e9, native_tile=(8, 32))),
        ("ws-0.8ghz-32x8", nvdla_chiplet().with_overrides(
            frequency_hz=0.8e9, native_tile=(32, 8))),
    ]


def fixture_pairs():
    layers = fixture_layers()
    return [(label, layer, accel)
            for label, accel in fixture_accels() for layer in layers]


def cost_dict(cost) -> dict:
    return dataclasses.asdict(cost)


def fixture_doc(costs) -> str:
    """Canonical fixture serialization for a list of per-pair costs."""
    entries = [
        {"accel": label, "layer": layer.name, "cost": cost_dict(cost)}
        for (label, layer, _), cost in zip(fixture_pairs(), costs)
    ]
    return json.dumps({"entries": entries}, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# Frozen fixture: byte-for-byte against evaluate()
# ----------------------------------------------------------------------

class TestFrozenFixture:
    def test_fixture_exists(self):
        assert FIXTURE.is_file(), (
            "regenerate via fixture_doc() over evaluate() after a "
            "deliberate cost-model change")

    def test_scalar_evaluate_matches_fixture(self):
        clear_cache()
        costs = [evaluate(layer, accel)
                 for _, layer, accel in fixture_pairs()]
        assert fixture_doc(costs) == FIXTURE.read_text()


# ----------------------------------------------------------------------
# Row bands priced by shape
# ----------------------------------------------------------------------

@st.composite
def band_cases(draw):
    """A layer of any kind on a 2D plane or a 1D token plane (any
    stride, deconv included), a band count and a band index."""
    kind = draw(st.sampled_from(LayerKind))
    out_h = draw(st.one_of(st.just(1), st.integers(2, 120)))
    r = draw(st.sampled_from([1, 3, 4, 5]))
    layer = Layer(
        "layer", kind, out_h, draw(st.integers(1, 200)),
        k=draw(st.integers(1, 512)),
        c=1 if kind is LayerKind.DWCONV else draw(st.integers(1, 512)),
        r=r, s=draw(st.sampled_from([1, r])),
        stride=draw(st.integers(1, 3)),
        weights_are_activations=draw(st.booleans()))
    size = out_h if out_h > 1 else layer.out_w
    n = draw(st.integers(1, size))
    return layer, n, draw(st.integers(0, n - 1))


class TestBandShapes:
    @settings(max_examples=300, deadline=None)
    @given(case=band_cases(), labeled=st.sampled_from(fixture_accels()))
    @example(case=(deconv("up", (56, 56), 32, 64, r=4, stride=2), 5, 4),
             labeled=fixture_accels()[1])
    @example(case=(dense("fc", (1, 197), 768, 768), 8, 0),
             labeled=fixture_accels()[0])
    def test_shape_memo_prices_like_the_split_band(self, case, labeled):
        layer, n, index = case
        accel = labeled[1]
        band = split_plane(layer, n, index)
        extra, big, small = _band_shapes(layer, n)
        shape = big if index < extra else small
        assert shape == band.shape
        want = dataclasses.replace(evaluate(band, accel), layer_name="")
        assert evaluate_shape(shape, accel) == want


# ----------------------------------------------------------------------
# Delta-sweeps
# ----------------------------------------------------------------------

GRID_KWARGS = dict(tolerances=[1.1, 1.25], nop_gbps=[64.0, 128.0])


def count_repriced(monkeypatch, sweep, baseline):
    """Run ``run_delta`` while recording which keys hit run_scenario."""
    import repro.sweep.runner as runner_mod
    orig = runner_mod.run_scenario
    priced: list[str] = []

    def counting(scenario, *args, **kwargs):
        priced.append(scenario.key)
        return orig(scenario, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_scenario", counting)
    result = sweep.run_delta(baseline)
    return result, priced


class TestDeltaSweep:
    @pytest.fixture()
    def baseline(self, tmp_path):
        journal = tmp_path / "journal"
        grid = scenario_grid(**GRID_KWARGS)
        full = ScenarioSweep(grid, journal_path=journal).run()
        return grid, journal, full

    def test_unchanged_grid_reprices_zero(self, baseline, monkeypatch):
        grid, journal, full = baseline
        sweep = ScenarioSweep(scenario_grid(**GRID_KWARGS))
        result, priced = count_repriced(monkeypatch, sweep, journal)
        assert priced == []
        assert result.delta_skipped == len(grid)
        assert result.summary()["delta_skipped"] == len(grid)
        assert result.rows_json() == full.rows_json()

    def test_single_axis_change_reprices_only_moved_keys(
            self, baseline, monkeypatch, tmp_path):
        _, journal, _ = baseline
        changed = scenario_grid(tolerances=[1.1, 1.25],
                                nop_gbps=[64.0, 256.0])
        sweep = ScenarioSweep(changed)
        result, priced = count_repriced(monkeypatch, sweep, journal)
        moved = [s.key for s in changed if "nop=256" in s.key]
        assert sorted(priced) == sorted(moved)
        assert result.delta_skipped == len(changed) - len(moved)
        cold = ScenarioSweep(list(changed)).run()
        assert result.rows_json() == cold.rows_json()

    def test_in_memory_result_baseline(self, baseline, monkeypatch):
        grid, _, full = baseline
        sweep = ScenarioSweep(scenario_grid(**GRID_KWARGS))
        result, priced = count_repriced(monkeypatch, sweep, full)
        assert priced == []
        assert result.delta_skipped == len(grid)
        assert result.rows_json() == full.rows_json()

    def test_pre_fingerprint_journal_reprices_everything(
            self, baseline, monkeypatch):
        grid, journal, full = baseline
        # Strip the fingerprints, simulating a journal written before
        # delta-sweeps existed: splicing must conservatively refuse.
        for record in SweepJournal(journal).outcome_files():
            payload = json.loads(record.read_text())
            payload.pop("fingerprint")
            record.write_text(json.dumps(payload, sort_keys=True))
        sweep = ScenarioSweep(scenario_grid(**GRID_KWARGS))
        result, priced = count_repriced(monkeypatch, sweep, journal)
        assert sorted(priced) == sorted(s.key for s in grid)
        assert result.delta_skipped == 0
        assert result.rows_json() == full.rows_json()

    def test_fingerprint_is_content_addressed(self):
        grid = scenario_grid(**GRID_KWARGS)
        fp_a = scenario_fingerprint(grid[0])
        fp_b = scenario_fingerprint(dataclasses.replace(grid[0]))
        assert fp_a == fp_b  # structural, not identity
        assert fp_a != scenario_fingerprint(grid[1])
        assert len(fp_a) == 64  # sha256 hex

    def test_delta_journal_checkpoints_under_parent_indices(
            self, baseline, tmp_path):
        _, journal, _ = baseline
        changed = scenario_grid(tolerances=[1.1, 1.25],
                                nop_gbps=[64.0, 256.0])
        delta_journal = tmp_path / "delta-journal"
        sweep = ScenarioSweep(changed, journal_path=delta_journal)
        sweep.run_delta(journal)
        recorded = {json.loads(p.read_text())["key"]: p.name
                    for p in SweepJournal(delta_journal).outcome_files()}
        index = {s.key: i for i, s in enumerate(changed)}
        for key, name in recorded.items():
            assert name == f"outcome-{index[key]:05d}.json"
