"""Reproduction of "Performance Implications of Multi-Chiplet Neural
Processing Units on Autonomous Driving Perception" (DATE 2025).

Public API tour:

* :mod:`repro.workloads` — layer IR and the Tesla-Autopilot-style
  perception pipeline builders (:func:`build_perception_workload`).
* :mod:`repro.cost` — the MAESTRO-like analytical cost model
  (:func:`evaluate`, accelerator presets).
* :mod:`repro.arch` — Simba-like MCM package and NoP cost model
  (:func:`simba_package`).
* :mod:`repro.core` — the paper's contribution: throughput-matching
  scheduler (:func:`match_throughput`), trunk DSE (:class:`TrunkDSE`),
  context-aware lane analysis.
* :mod:`repro.sim` — baseline engine simulation for Table II.
* :mod:`repro.experiments` — one driver per paper table/figure.

Every package imports on use: ``import repro`` loads no subpackage, and
a name re-exported here or in a package ``__init__`` imports the module
that defines it the first time it is looked up (see
:func:`lazy_exports`), so a command loads only the modules it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from .arch import MCMPackage, NoPConfig, simba_package, transfer_cost
    from .core import (
        Schedule,
        ThroughputMatcher,
        TrunkDSE,
        lane_context_sweep,
        match_throughput,
    )
    from .cost import (
        AcceleratorConfig,
        EnergyTable,
        evaluate,
        monolithic,
        nvdla_chiplet,
        shidiannao_chiplet,
        simba_chiplet,
    )
    from .sim import PerfReport, run_baselines, simulate_engines
    from .workloads import (
        Layer,
        LayerGroup,
        PerceptionWorkload,
        PipelineConfig,
        build_perception_workload,
    )


def lazy_exports(package: str, /, **exports: tuple[str, ...]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package ``__init__``.

    Each keyword names a submodule of ``package`` and lists the names the
    package re-exports from it.  A name imports its submodule on first
    lookup and is then bound on the package, so later lookups, and
    ``inspect.getattr_static``, find it without this hook; a submodule's
    own name resolves to the submodule.  The package imports the same
    names under ``TYPE_CHECKING`` for static checkers.
    """
    owners = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        sub = owners.get(name, name)
        if sub not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{sub}")
        value = module if sub == name else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        module = sys.modules[package]
        return sorted({*vars(module), *getattr(module, "__all__", ()),
                       *owners, *exports})

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_exports(
    __name__,
    arch=("MCMPackage", "NoPConfig", "simba_package", "transfer_cost"),
    core=("Schedule", "ThroughputMatcher", "TrunkDSE",
          "lane_context_sweep", "match_throughput"),
    cost=("AcceleratorConfig", "EnergyTable", "evaluate", "monolithic",
          "nvdla_chiplet", "shidiannao_chiplet", "simba_chiplet"),
    sim=("PerfReport", "run_baselines", "simulate_engines"),
    workloads=("Layer", "LayerGroup", "PerceptionWorkload",
               "PipelineConfig", "build_perception_workload"),
)

__version__ = "1.0.0"

__all__ = [
    "MCMPackage",
    "NoPConfig",
    "simba_package",
    "transfer_cost",
    "Schedule",
    "ThroughputMatcher",
    "TrunkDSE",
    "lane_context_sweep",
    "match_throughput",
    "AcceleratorConfig",
    "EnergyTable",
    "evaluate",
    "monolithic",
    "nvdla_chiplet",
    "shidiannao_chiplet",
    "simba_chiplet",
    "PerfReport",
    "run_baselines",
    "simulate_engines",
    "Layer",
    "LayerGroup",
    "PerceptionWorkload",
    "PipelineConfig",
    "build_perception_workload",
    "__version__",
]
