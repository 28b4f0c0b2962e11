"""The sweep axes as the CLI spells them: one table and one parser.

:data:`AXIS_SPECS` names every axis of
:func:`~repro.sweep.scenario.scenario_grid` with its CLI flag, default,
help text and token parser; ``repro.cli`` declares the ``sweep``,
``design`` and ``report scaling`` axis flags from it, and
:func:`parse_grid_axes` turns the flags' texts into ``scenario_grid``
keyword arguments.

Building a parser reads only this module: the three token parsers that
check a value against the model (dataflow styles, topology and hetero
tokens) import it when they parse, so a subcommand's ``--help`` loads no
model module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


def parse_tile(text: str) -> tuple[int, int]:
    """Parse a native-tile token (``16x16`` -> ``(16, 16)``)."""
    rows, sep, cols = text.lower().partition("x")
    if not sep or not rows.strip().isdigit() or not cols.strip().isdigit():
        raise ValueError("expected ROWSxCOLS, e.g. 16x16")
    return (int(rows), int(cols))


def _parse_dataflow(text: str) -> str:
    from ..cost.accelerator import DATAFLOW_STYLES
    if text not in DATAFLOW_STYLES:
        raise ValueError(f"expected one of {', '.join(DATAFLOW_STYLES)}")
    return text


def _parse_topology_token(text: str) -> str:
    """Validate and canonicalize one topology axis token.

    Delegates to :func:`repro.arch.canonical_topology`, whose errors
    list the valid kinds and the ``KIND-WxH`` grid form — wrapped by
    :func:`parse_axis` with the offending axis name.
    """
    from ..arch import canonical_topology
    return canonical_topology(text)


def _parse_hetero_token(text: str) -> str:
    """Validate and canonicalize one per-quadrant hetero axis token.

    Delegates to :meth:`repro.arch.QuadrantOverrides.parse`, whose
    errors list the valid quadrant names and dataflow styles — wrapped
    by :func:`parse_axis` with the offending axis name.
    """
    from ..arch import QuadrantOverrides
    return QuadrantOverrides.parse(text).token


@dataclass(frozen=True)
class AxisSpec:
    """How one axis maps onto :func:`scenario_grid` and the CLI."""

    #: keyword argument of :func:`scenario_grid`
    grid_kwarg: str
    #: token parser for one non-``none`` value
    cast: Callable
    #: whether the ``none`` sentinel is meaningful for this axis
    allows_none: bool
    #: the CLI flag, verbatim (the names are irregular: ``--het-budgets``)
    flag: str
    #: the flag's default value text
    default: str
    #: the flag's ``--help`` text
    help: str


#: every sweep axis reachable from the CLI, keyed by its canonical name
#: (also accepted by ``--axis NAME=VALUES``); ``repro.cli`` declares
#: each subcommand's axis flags from this table.
AXIS_SPECS: dict[str, AxisSpec] = {
    "tolerance": AxisSpec(
        "tolerances", float, False, "--tolerances", "1.05",
        "comma-separated tolerance coefficients"),
    "nop_gbps": AxisSpec(
        "nop_gbps", float, True, "--nop-gbps", "none",
        "comma-separated NoP bandwidths in GB/s ('none' = default 100)"),
    "npus": AxisSpec(
        "npus", int, False, "--npus", "1",
        "comma-separated NPU module counts"),
    "workload": AxisSpec(
        "workloads", str, False, "--workloads", "default",
        "comma-separated workload variant names"),
    "het_ws_budget": AxisSpec(
        "het_ws_budgets", int, True, "--het-budgets", "none",
        "comma-separated WS chiplet budgets for the trunk DSE "
        "('none' = skip)"),
    "dataflow": AxisSpec(
        "dataflows", _parse_dataflow, True, "--dataflows", "none",
        "comma-separated chiplet dataflow styles (os/ws/rs; 'none' = os)"),
    "frequency_ghz": AxisSpec(
        "frequencies_ghz", float, True, "--frequencies-ghz", "none",
        "comma-separated chiplet clocks in GHz ('none' = 2 GHz)"),
    "native_tile": AxisSpec(
        "native_tiles", parse_tile, True, "--native-tiles", "none",
        "comma-separated native dataflow tiles as ROWSxCOLS, e.g. 16x16 "
        "('none' = 16x16)"),
    "dram_gbps": AxisSpec(
        "dram_gbps", float, True, "--dram-gbps", "none",
        "comma-separated package DRAM bandwidths in GB/s ('none' = "
        "compute-only steady state)"),
    "topology": AxisSpec(
        "topologies", _parse_topology_token, True, "--topologies", "none",
        "comma-separated NoP topologies (mesh, torus, or KIND-WxH grids "
        "like torus-8x8; 'none' = the seed open mesh)"),
    "hetero": AxisSpec(
        "heteros", _parse_hetero_token, True, "--hetero", "none",
        "comma-separated per-quadrant hardware override tokens "
        "(QUAD:DATAFLOW[@GHZ][/ROWSxCOLS] joined by '+', e.g. "
        "trunk:ws@1.2+temporal:@1.5; a quadrant is one engine, Het(k) "
        "is --het-budgets; 'none' = homogeneous package)"),
}


def parse_axis(text: str, cast=float, axis: str | None = None) -> list:
    """Parse a comma-separated CLI axis ('1.0,1.05'); 'none' -> None.

    Every axis — float, int, string, or tuple-valued (``16x16``) — goes
    through this one path, so the ``none`` sentinel behaves uniformly and
    a bad token produces a ``ValueError`` naming the offending axis and
    value instead of a bare cast traceback.
    """
    label = f" for axis {axis!r}" if axis else ""
    values: list = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok.lower() == "none":
            values.append(None)
            continue
        try:
            values.append(cast(tok))
        except (ValueError, TypeError) as exc:
            detail = str(exc) or f"not a valid {getattr(cast, '__name__', 'value')}"
            raise ValueError(
                f"invalid value {tok!r}{label}: {detail}") from None
    if not values:
        raise ValueError(f"empty axis{label}: {text!r}")
    return values


def parse_grid_axes(axis_texts: dict[str, str]) -> dict:
    """Parse named CLI axes into :func:`scenario_grid` keyword arguments.

    ``axis_texts`` maps canonical axis names (see :data:`AXIS_SPECS`) to
    their comma-separated value strings; unknown names and ``none`` on an
    axis that has no default sentinel raise a ``ValueError`` naming the
    axis.
    """
    kwargs: dict = {}
    for name, text in axis_texts.items():
        spec = AXIS_SPECS.get(name)
        if spec is None:
            raise ValueError(
                f"unknown sweep axis {name!r}; "
                f"known: {', '.join(sorted(AXIS_SPECS))}")
        values = parse_axis(text, spec.cast, axis=name)
        if not spec.allows_none and None in values:
            raise ValueError(
                f"invalid value 'none' for axis {name!r}: "
                f"this axis has no default sentinel")
        kwargs[spec.grid_kwarg] = values
    return kwargs
