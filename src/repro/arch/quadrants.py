"""Per-quadrant heterogeneous package composition.

The paper evaluates heterogeneous integration only inside the trunk
quadrant (Table I), through the trunk DSE (the ``het_ws_budget`` axis).
Each perception stage owns one quadrant per module, so matching every
quadrant's *hardware* (dataflow, clock, native tile) to its stage's
workload phase is the package-level analogue of picking the right
accelerator per kernel.  A quadrant stays one engine: an override
rewrites all of its chiplets, and a package whose quadrant mixes
engines fails to build (:class:`~repro.arch.package.MCMPackage`).

:class:`QuadrantOverrides` is that spec as a first-class object: a set of
per-quadrant :class:`QuadrantOverride` records, parsed from compact
tokens like ``trunk:ws@1.2`` and applied to an
:class:`~repro.arch.package.MCMPackage` by rewriting the quadrant's
chiplets through :meth:`~repro.cost.AcceleratorConfig.with_overrides`.
Quadrant names follow the paper's stage-per-quadrant assignment (see
:func:`repro.core.placement.default_stage_quadrants`): local quadrant
``i`` of every module maps to ``QUADRANT_NAMES[i]``, so an override
named ``trunk`` rewrites the trunk quadrant of *each* NPU module.

Token grammar (one axis value; ``+`` separates quadrants because ``,``
separates axis values on the CLI)::

    HETERO  := QTOKEN ('+' QTOKEN)*
    QTOKEN  := QUADRANT ':' SPEC
    SPEC    := [DATAFLOW] ['@' GHZ] ['/' ROWSxCOLS]
               # >= 1 hardware component (dataflow, clock, or tile)

Examples: ``trunk:ws`` (weight-stationary trunk quadrant),
``trunk:ws@1.2`` (WS at 1.2 GHz), ``temporal:@1.5`` (clock only),
``fe:/8x8`` (tile only), ``trunk:ws+temporal:@1.5`` (two quadrants).
A ``#`` count that names part of a quadrant (``trunk:ws#4``) is
rejected: the paper's Het(k) is the trunk DSE's WS-chiplet budget,
``--het-budgets``.
``parse`` canonicalizes (quadrants in :data:`QUADRANT_NAMES` order,
``%g`` frequencies), so equivalent spellings key sweeps identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cost import DATAFLOW_STYLES, AcceleratorConfig
from .package import MCMPackage

__all__ = [
    "QUADRANT_NAMES",
    "QuadrantOverride",
    "QuadrantOverrides",
    "package_composition",
    "quadrant_ids",
]

#: canonical quadrant names, in local quadrant-index order — the paper's
#: stage-per-quadrant assignment (FE+BFPN, spatial fusion, temporal
#: fusion, trunks).
QUADRANT_NAMES = ("fe", "spatial", "temporal", "trunk")


@dataclass(frozen=True)
class QuadrantOverride:
    """Hardware overrides for one quadrant's chiplets.

    Every hardware field defaults to ``None`` = keep the package-wide
    value; at least one must be set (a fully-empty override is a parse
    error, not a silent no-op).
    """

    dataflow: str | None = None
    frequency_ghz: float | None = None
    native_tile: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.dataflow is None and self.frequency_ghz is None \
                and self.native_tile is None:
            raise ValueError(
                "empty quadrant override: give a dataflow, @GHZ, "
                "and/or /ROWSxCOLS")
        if self.dataflow is not None and self.dataflow not in DATAFLOW_STYLES:
            raise ValueError(
                f"unknown dataflow {self.dataflow!r}; valid dataflows: "
                f"{', '.join(DATAFLOW_STYLES)}")
        # written so that NaN fails it too
        if self.frequency_ghz is not None and not self.frequency_ghz > 0:
            raise ValueError("quadrant frequency_ghz must be positive")
        if self.native_tile is not None:
            tile = self.native_tile
            if (not isinstance(tile, (tuple, list)) or len(tile) != 2
                    or not all(isinstance(d, int) and d > 0 for d in tile)):
                raise ValueError(
                    f"quadrant native_tile must be two positive integers "
                    f"(rows, cols); got {tile!r}")
            object.__setattr__(self, "native_tile", tuple(tile))

    @property
    def token(self) -> str:
        """Canonical SPEC fragment (``ws@1.2/8x8`` form)."""
        out = self.dataflow or ""
        if self.frequency_ghz is not None:
            out += f"@{self.frequency_ghz:g}"
        if self.native_tile is not None:
            out += f"/{self.native_tile[0]}x{self.native_tile[1]}"
        return out

    def apply(self, base: AcceleratorConfig) -> AcceleratorConfig:
        """The quadrant's chiplet config, layered on the package-wide one.

        Routed through :meth:`AcceleratorConfig.with_overrides`, so an
        override that spells out the base value yields the *identical*
        config (same plan-cache and plan-store entries) while any real
        difference changes the content hash.
        """
        freq = (None if self.frequency_ghz is None
                else self.frequency_ghz * 1e9)
        return base.with_overrides(dataflow=self.dataflow,
                                   frequency_hz=freq,
                                   native_tile=self.native_tile)


def _parse_tile(text: str, token: str) -> tuple[int, int]:
    rows, sep, cols = text.partition("x")
    if not sep or not rows.strip().isdigit() or not cols.strip().isdigit():
        raise ValueError(
            f"bad native tile {text!r} in {token!r}: expected ROWSxCOLS, "
            f"e.g. 8x8")
    return (int(rows), int(cols))


def _parse_quadrant_token(token: str) -> tuple[str, QuadrantOverride]:
    """Split one QTOKEN; value validation lives in QuadrantOverride.

    Only the *lexical* errors (token shape, unparseable numbers) are
    raised here; everything about legal values — dataflow styles,
    positive frequencies/tiles, the at-least-one-field rule — has a
    single source of truth in ``QuadrantOverride.__post_init__``, whose
    message is wrapped with the offending quadrant and token.
    """
    quad, sep, spec = token.partition(":")
    quad = quad.strip().lower()
    if not sep or not quad:
        raise ValueError(
            f"expected QUADRANT:SPEC in {token!r} (e.g. trunk:ws@1.2); "
            f"valid quadrants: {', '.join(QUADRANT_NAMES)}")
    if quad not in QUADRANT_NAMES:
        raise ValueError(
            f"unknown quadrant {quad!r} in {token!r}; valid quadrants: "
            f"{', '.join(QUADRANT_NAMES)}")
    spec = spec.strip().lower()
    if "#" in spec:
        raise ValueError(
            f"{token!r} overrides part of a quadrant, but a quadrant is "
            f"one engine; give the trunk's Het(k) WS chiplets with "
            f"--het-budgets")
    rest, tile_sep, tile_text = spec.partition("/")
    df_text, ghz_sep, ghz_text = rest.partition("@")
    ghz = None
    if ghz_sep:
        try:
            ghz = float(ghz_text)
        except ValueError:
            raise ValueError(
                f"bad frequency {ghz_text!r} in {token!r}: expected "
                f"@GHZ, e.g. trunk:ws@1.2") from None
    tile = _parse_tile(tile_text, token) if tile_sep else None
    try:
        override = QuadrantOverride(dataflow=df_text.strip() or None,
                                    frequency_ghz=ghz, native_tile=tile)
    except ValueError as exc:
        raise ValueError(
            f"{exc} (quadrant {quad!r} in {token!r})") from None
    return quad, override


@dataclass(frozen=True)
class QuadrantOverrides:
    """Per-quadrant hardware overrides for an MCM package.

    ``overrides`` is canonically ordered (by :data:`QUADRANT_NAMES`
    position), so two specs describing the same composition compare,
    hash, and tokenize identically regardless of spelling order.
    """

    overrides: tuple[tuple[str, QuadrantOverride], ...]

    def __post_init__(self) -> None:
        if not self.overrides:
            raise ValueError("QuadrantOverrides needs at least one quadrant")
        names = [name for name, _ in self.overrides]
        for name in names:
            if name not in QUADRANT_NAMES:
                raise ValueError(
                    f"unknown quadrant {name!r}; valid quadrants: "
                    f"{', '.join(QUADRANT_NAMES)}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate quadrant override in {names}")
        ordered = tuple(sorted(self.overrides,
                               key=lambda kv: QUADRANT_NAMES.index(kv[0])))
        object.__setattr__(self, "overrides", ordered)

    @classmethod
    def parse(cls, text: str) -> "QuadrantOverrides":
        """Parse a compact hetero token (see the module docstring)."""
        tokens = [t.strip() for t in text.split("+")]
        if not any(tokens):
            raise ValueError(
                f"empty hetero spec {text!r}: expected QUADRANT:SPEC "
                f"tokens joined by '+', e.g. trunk:ws@1.2")
        return cls(tuple(_parse_quadrant_token(t) for t in tokens if t))

    @property
    def token(self) -> str:
        """Canonical axis token (``trunk:ws@1.2+...``, quadrant-ordered)."""
        return "+".join(f"{name}:{ov.token}" for name, ov in self.overrides)

    def get(self, name: str) -> QuadrantOverride | None:
        """The override for one quadrant name, or ``None``."""
        for quad, ov in self.overrides:
            if quad == name:
                return ov
        return None

    def apply(self, package: MCMPackage) -> MCMPackage:
        """Materialize the spec: a copy of ``package`` with every named
        quadrant's chiplets, in every module, rewritten through
        ``with_overrides`` to one shared config object.
        """
        accel_of: dict[int, AcceleratorConfig] = {}
        for name, override in self.overrides:
            ids = quadrant_ids(name, package)
            accel_of.update(dict.fromkeys(
                (c.chiplet_id for q in ids for c in package.quadrant(q)),
                override.apply(package.engine(ids[0]))))
        return package.with_accels(accel_of, suffix=f"+het({self.token})")


def quadrant_ids(name: str, package: MCMPackage) -> list[int]:
    """Global quadrant indices of ``name`` across all NPU modules.

    The one place the stage-per-quadrant indexing contract (local
    quadrant ``i`` of module ``m`` is global ``i + 4m``) is spelled out;
    :meth:`QuadrantOverrides.apply` and :func:`package_composition` both
    resolve names through it.
    """
    count = package.quadrant_count
    if count % len(QUADRANT_NAMES):
        raise ValueError(
            f"package {package.name} has {count} quadrants; quadrant "
            f"names need a multiple of {len(QUADRANT_NAMES)}")
    local = QUADRANT_NAMES.index(name)
    return [local + len(QUADRANT_NAMES) * m
            for m in range(count // len(QUADRANT_NAMES))]


def package_composition(package: MCMPackage) -> str:
    """Canonical per-quadrant hardware description of a package.

    One fragment per local quadrant name (``fe:os@2|...|trunk:ws@1.2``):
    the engine that quadrant runs in every NPU module.  Deterministic,
    so it is safe in sweep rows and report documents.
    """
    return "|".join(
        f"{name}:{package.engine(quadrant_ids(name, package)[0]).hw_token}"
        for name in QUADRANT_NAMES)
