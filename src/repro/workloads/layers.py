"""Layer-level intermediate representation for perception workloads.

Every network in the Tesla-Autopilot-style perception pipeline (Fig. 2 of the
paper) is lowered to a sequence of :class:`Layer` records.  A layer captures
exactly the quantities the analytical cost model needs:

* the *output plane* ``(out_h, out_w)`` — the 2D tensor face that an
  output-stationary (ShiDianNao-like) accelerator maps spatially;
* the output channel count ``k`` and the reduction depth ``c`` — the dims a
  weight-stationary (NVDLA-like) accelerator maps spatially;
* the kernel extent ``r x s`` and stride;
* operand word counts (fp16 words) for traffic and energy analysis.

Attention blocks are decomposed into MATMUL/DENSE layers plus SOFTMAX vector
ops, mirroring the paper's layer-id-level analysis in Fig. 4.  Deconvolution
is modeled as zero-insertion followed by a dense convolution (``r*s`` MACs per
output pixel), which is how NVDLA-class engines execute it and which
reproduces the paper's Table III scaling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable

#: fp16 operand width used throughout the cost model.
BYTES_PER_WORD = 2


class LayerKind(enum.Enum):
    """Operator classes distinguished by the cost model."""

    CONV = "conv"
    DWCONV = "dwconv"
    DECONV = "deconv"
    DENSE = "dense"
    MATMUL = "matmul"
    POOL = "pool"
    ELTWISE = "eltwise"
    SOFTMAX = "softmax"
    CONCAT = "concat"
    MOVE = "move"

    @property
    def is_compute(self) -> bool:
        """True for MAC-array ops; False for vector/data-movement ops."""
        return self in _COMPUTE_KINDS


_COMPUTE_KINDS = frozenset(
    {LayerKind.CONV, LayerKind.DWCONV, LayerKind.DECONV, LayerKind.DENSE,
     LayerKind.MATMUL}
)


#: :attr:`Layer.shape`: ``(kind, out_h, out_w, k, c, r, s, stride,
#: weights_are_activations)``.
LayerShape = tuple[LayerKind, int, int, int, int, int, int, int, bool]

#: :func:`operand_words`: ``(macs, weight_words, input_words,
#: output_words)`` of one layer shape.
OperandWords = tuple[int, int, int, int]

# The shape helpers below run on every price.  On Python 3.11 looking a
# member up through its enum class costs ~10x reading a module global,
# so they compare kinds against these.
_DWCONV, _DECONV, _DENSE, _MATMUL = (
    LayerKind.DWCONV, LayerKind.DECONV, LayerKind.DENSE, LayerKind.MATMUL)


def check_shape(name: str, shape: LayerShape) -> None:
    """Raise ``ValueError`` unless ``shape`` describes a valid layer.

    The one validator: :class:`Layer` runs it on construction and
    :func:`repro.cost.evaluate_shape` on every shape it prices, so a bad
    shape fails with the same message whichever way it arrives.
    """
    kind, out_h, out_w, k, c, r, s, stride, _ = shape
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"{name}: output plane must be positive")
    if k <= 0 or c <= 0:
        raise ValueError(f"{name}: k and c must be positive")
    if r <= 0 or s <= 0 or stride <= 0:
        raise ValueError(f"{name}: kernel/stride must be positive")
    if kind is _DWCONV and c != 1:
        raise ValueError(f"{name}: depthwise conv requires c == 1")


def input_plane(shape: LayerShape) -> tuple[int, int]:
    """``(in_h, in_w)``: the input plane the output plane and stride imply."""
    kind, out_h, out_w, _, _, r, s, stride, _ = shape
    if kind is _DECONV:
        return (max(1, math.ceil(out_h / stride)),
                max(1, math.ceil(out_w / stride)))
    return (out_h - 1) * stride + r, (out_w - 1) * stride + s


def operand_words(shape: LayerShape) -> OperandWords:
    """``(macs, weight_words, input_words, output_words)`` of a shape.

    The one home of the operand-size formulas (fp16 words): the size
    properties of :class:`Layer` read it, cached per instance, and the
    cost model's pricing kernel calls it once per price.

    DECONV uses the zero-insertion model: the dense conv at output
    resolution performs ``r*s`` MACs per output pixel including the
    inserted zeros (no sparsity skipping), matching NVDLA-class engines.
    Vector ops have no MACs or weights and stream their output-sized
    operand(s).
    """
    kind, out_h, out_w, k, c, r, s, _, _ = shape
    plane = out_h * out_w
    output = plane * k
    if kind not in _COMPUTE_KINDS:
        return 0, 0, output, output
    if kind is _DENSE or kind is _MATMUL:
        inputs = plane * c
    else:
        in_h, in_w = input_plane(shape)
        inputs = (k if kind is _DWCONV else c) * in_h * in_w
    return (plane * k * c * r * s,
            k * r * s if kind is _DWCONV else k * c * r * s,
            inputs, output)


@dataclass(frozen=True)
class Layer:
    """A single operator instance with everything the cost model needs.

    Parameters mirror a convolution; other operator kinds reinterpret them:

    * DENSE / MATMUL: ``out_h x out_w`` is the output token plane, ``k`` the
      output feature count, ``c`` the reduction (inner) dimension and
      ``r = s = 1``.
    * DWCONV: ``c`` must be 1 (per-channel reduction is only ``r*s``).
    * POOL / ELTWISE / SOFTMAX / CONCAT / MOVE: no MACs; ``vector_elems``
      below derives the vector-unit workload from the output tensor.
    """

    name: str
    kind: LayerKind
    out_h: int
    out_w: int
    k: int
    c: int
    r: int = 1
    s: int = 1
    stride: int = 1
    #: True when the "weight" operand is itself an activation produced at
    #: runtime (attention score/context matmuls).  Such operands are never
    #: fetched from DRAM and cannot be pre-loaded.
    weights_are_activations: bool = False
    #: Free-form tags, e.g. {"group": "S_QKV", "stage": "S_FUSE"}.
    tags: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        check_shape(self.name, self.shape)

    def __hash__(self) -> int:
        # Layers are deep-frozen and hashed constantly: every evaluate()
        # memo probe and every plan-cache key hashes the layer chain.
        # Cache the structural hash per instance (same fields the
        # generated __eq__ compares; ``tags`` is excluded from both).
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.name, *self.shape))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def shape(self) -> LayerShape:
        """Every field the cost model reads: all but ``name`` and ``tags``.

        In declaration order, so ``Layer(name, *shape)`` rebuilds the
        layer under any name.  Cached per instance like the hash.
        """
        shape = self.__dict__.get("_shape")
        if shape is None:
            shape = (self.kind, self.out_h, self.out_w, self.k, self.c,
                     self.r, self.s, self.stride,
                     self.weights_are_activations)
            object.__setattr__(self, "_shape", shape)
        return shape

    # ------------------------------------------------------------------
    # Derived sizes (fp16 words), from :func:`operand_words`
    # ------------------------------------------------------------------

    @property
    def _operand_words(self) -> OperandWords:
        """:func:`operand_words` of the shape, cached like :attr:`shape`."""
        words = self.__dict__.get("_words")
        if words is None:
            words = operand_words(self.shape)
            object.__setattr__(self, "_words", words)
        return words

    @property
    def macs(self) -> int:
        """Multiply-accumulate count (zero-insertion for DECONV)."""
        return self._operand_words[0]

    @property
    def vector_elems(self) -> int:
        """Vector-unit element operations for non-MAC layers."""
        return 0 if self.kind.is_compute else self.output_words

    @property
    def weight_words(self) -> int:
        """Words of the stationary/filter operand."""
        return self._operand_words[1]

    @property
    def in_h(self) -> int:
        """Input plane height implied by the output plane and stride."""
        return input_plane(self.shape)[0]

    @property
    def in_w(self) -> int:
        """Input plane width implied by the output plane and stride."""
        return input_plane(self.shape)[1]

    @property
    def input_words(self) -> int:
        """Words of the streamed input operand."""
        return self._operand_words[2]

    @property
    def output_words(self) -> int:
        """Words of the produced output tensor."""
        return self._operand_words[3]

    @property
    def output_bytes(self) -> int:
        return self.output_words * BYTES_PER_WORD


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------

def conv(name: str, out_hw: tuple[int, int], k: int, c: int, r: int = 3,
         s: int | None = None, stride: int = 1, **tags) -> Layer:
    """Dense 2D convolution producing a ``k x out_h x out_w`` tensor."""
    s = r if s is None else s
    return Layer(name, LayerKind.CONV, out_hw[0], out_hw[1], k, c, r, s,
                 stride, tags=tags)


def dwconv(name: str, out_hw: tuple[int, int], k: int, r: int = 3,
           stride: int = 1, **tags) -> Layer:
    """Depthwise convolution over ``k`` channels."""
    return Layer(name, LayerKind.DWCONV, out_hw[0], out_hw[1], k, 1, r, r,
                 stride, tags=tags)


def deconv(name: str, out_hw: tuple[int, int], k: int, c: int, r: int = 3,
           stride: int = 2, **tags) -> Layer:
    """Transposed convolution (zero-insertion model) upsampling by ``stride``."""
    return Layer(name, LayerKind.DECONV, out_hw[0], out_hw[1], k, c, r, r,
                 stride, tags=tags)


def dense(name: str, tokens_hw: tuple[int, int], k: int, c: int,
          **tags) -> Layer:
    """Linear layer applied across a plane of tokens (token-parallel GEMM)."""
    return Layer(name, LayerKind.DENSE, tokens_hw[0], tokens_hw[1], k, c,
                 tags=tags)


def matmul(name: str, tokens_hw: tuple[int, int], k: int, c: int,
           **tags) -> Layer:
    """Activation-by-activation matmul (attention scores/context)."""
    return Layer(name, LayerKind.MATMUL, tokens_hw[0], tokens_hw[1], k, c,
                 weights_are_activations=True, tags=tags)


def softmax(name: str, tokens_hw: tuple[int, int], k: int, **tags) -> Layer:
    """Row softmax over ``k`` attention logits per token."""
    return Layer(name, LayerKind.SOFTMAX, tokens_hw[0], tokens_hw[1], k, 1,
                 tags=tags)


def pool(name: str, out_hw: tuple[int, int], k: int, r: int = 3,
         stride: int = 2, **tags) -> Layer:
    """Max/avg pooling (vector op)."""
    return Layer(name, LayerKind.POOL, out_hw[0], out_hw[1], k, 1, r, r,
                 stride, tags=tags)


def eltwise(name: str, out_hw: tuple[int, int], k: int, **tags) -> Layer:
    """Element-wise add/activation (vector op)."""
    return Layer(name, LayerKind.ELTWISE, out_hw[0], out_hw[1], k, 1,
                 tags=tags)


def concat(name: str, out_hw: tuple[int, int], k: int, **tags) -> Layer:
    """Feature concatenation (data reshuffle on the vector path)."""
    return Layer(name, LayerKind.CONCAT, out_hw[0], out_hw[1], k, 1,
                 tags=tags)


def move(name: str, out_hw: tuple[int, int], k: int, **tags) -> Layer:
    """Pure data movement (e.g. camera-to-BEV lift/scatter): no MACs."""
    return Layer(name, LayerKind.MOVE, out_hw[0], out_hw[1], k, 1, tags=tags)


def total_macs(layers: Iterable[Layer]) -> int:
    """Sum of MACs over an iterable of layers."""
    return sum(layer.macs for layer in layers)
