"""Layer pricing: exactness locks.

Two contracts are locked here:

* ``evaluate()`` prices every layer kind on every dataflow, clock and
  tile override byte-for-byte like the frozen fixture
  ``tests/data/frozen_pricing.json``.
* ``evaluate_shape()``, which prices row bands by shape, matches
  ``evaluate()`` of the band ``oracles.split_plane`` cuts on every field
  but ``layer_name``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import split_plane

from repro.core.sharding import _band_shapes
from repro.cost import (
    clear_cache,
    evaluate,
    evaluate_shape,
    eyeriss_chiplet,
    monolithic,
    nvdla_chiplet,
    shidiannao_chiplet,
)
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
