"""Experiment drivers: one module per paper table/figure.

Each module exposes ``run() -> dict`` (structured results) and
``render(result) -> str`` (the human-readable table).  Benchmarks and the
CLI are thin wrappers over these.  A module imports on first use, and
``ALL_EXPERIMENTS`` imports every one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .. import lazy_exports

if TYPE_CHECKING:
    from types import ModuleType

    from . import fig3, fig4, fig5to8, fig9, fig10, fig11, scaling, \
        table1, table2, table3

    ALL_EXPERIMENTS: dict[str, ModuleType]

__all__ = ["ALL_EXPERIMENTS", "fig3", "fig4", "fig5to8", "fig9", "fig10",
           "fig11", "table1", "table2", "table3", "scaling"]

_MODULES = __all__[1:]

_submodule, __dir__ = lazy_exports(__name__,
                                   **{name: () for name in _MODULES})


def __getattr__(name: str) -> Any:
    if name != "ALL_EXPERIMENTS":
        return _submodule(name)
    experiments = {module: _submodule(module) for module in _MODULES}
    globals()[name] = experiments
    return experiments
