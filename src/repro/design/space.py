"""Declared joint design spaces over the sweep's scenario axes.

A :class:`DesignSpace` is the search-side twin of a sweep grid: the same
eleven axes, the same token grammar (including per-quadrant tokens
like ``trunk:ws@1.2`` on the ``hetero`` axis), parsed through the
same :data:`~repro.sweep.axes.AXIS_SPECS` single source of truth —
but held as a *declaration* (axis name -> candidate values) rather than
an expanded grid, so the search can report the space it covered and
enumerate candidates deterministically on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sweep.axes import AXIS_SPECS, parse_grid_axes
from ..sweep.scenario import Scenario, scenario_grid


def axis_token(name: str, value) -> str:
    """The CLI-grammar token for one axis value (report labels)."""
    if value is None:
        return "none"
    if name == "native_tile":
        return f"{value[0]}x{value[1]}"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class DesignSpace:
    """A declared candidate-value set per scenario axis.

    ``axes`` maps canonical axis names (see :data:`AXIS_SPECS`) to their
    candidate values, held in :data:`AXIS_SPECS` declaration order
    regardless of construction order — two declarations of the same
    space enumerate, and report, identically.  Axes left undeclared stay
    at :func:`~repro.sweep.scenario.scenario_grid`'s defaults.
    """

    axes: tuple[tuple[str, tuple], ...]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("DesignSpace needs at least one axis")
        names = [name for name, _ in self.axes]
        for name in names:
            if name not in AXIS_SPECS:
                raise ValueError(
                    f"unknown design axis {name!r}; "
                    f"known: {', '.join(sorted(AXIS_SPECS))}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate design axis in {names}")
        for name, values in self.axes:
            if not values:
                raise ValueError(f"design axis {name!r} has no values")
        order = list(AXIS_SPECS)
        ordered = tuple(sorted(((name, tuple(values))
                                for name, values in self.axes),
                               key=lambda kv: order.index(kv[0])))
        object.__setattr__(self, "axes", ordered)

    @classmethod
    def from_axis_texts(cls, axis_texts: dict[str, str]) -> "DesignSpace":
        """Parse CLI-style axis declarations (``{"tolerance": "1,1.05"}``).

        Tokens go through :func:`parse_grid_axes` — the sweep CLI's own
        parser — so every value grammar (``none`` sentinels, ``16x16``
        tiles, topology and hetero tokens) behaves identically in
        ``sweep`` and ``design`` mode.
        """
        kwargs = parse_grid_axes(dict(axis_texts))
        by_kwarg = {spec.grid_kwarg: name
                    for name, spec in AXIS_SPECS.items()}
        return cls(axes=tuple(
            (by_kwarg[kwarg], tuple(values))
            for kwarg, values in kwargs.items()))

    def grid_kwargs(self) -> dict:
        """The declaration as :func:`scenario_grid` keyword arguments."""
        return {AXIS_SPECS[name].grid_kwarg: list(values)
                for name, values in self.axes}

    @property
    def size(self) -> int:
        """Cross-product cardinality (before any search pruning)."""
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n

    def candidates(self) -> list[Scenario]:
        """The full cross-product, in canonical (row-major) order.

        Delegates to :func:`scenario_grid`, so the enumeration order —
        and the duplicate-candidate check — is exactly the sweep
        engine's, and a candidate's index is a stable identity within
        this space.
        """
        return scenario_grid(**self.grid_kwargs())

    def to_dict(self) -> dict:
        """JSON-safe declaration (axis name -> CLI value tokens)."""
        return {name: [axis_token(name, v) for v in values]
                for name, values in self.axes}
