"""Experiment scaling: chiplet-count scaling report (extension).

The headline artifact the ROADMAP calls out a la "Chiplets on Wheels":
sweep ``npus x workload x dram_gbps`` through the scenario-sweep engine
and report, per (workload, DRAM budget) column, how pipelining latency
scales with package size — including where an undersized DRAM interface
flattens the curve.  The default grid pairs the unbounded column with a
6 GB/s budget (DRAM wall appears once two NPUs outrun the interface) and
a 2 GB/s budget (every package size is memory-bound), so the report
always exhibits at least one DRAM-throttled point.

Everything runs through one serial
:class:`~repro.sweep.runner.ScenarioSweep`, so the plan cache amortizes
the per-``npus`` plans across the DRAM axis for free (DRAM throttling is
accounting-only and reuses identical group plans), and the emitted
document is a deterministic function of the grid.

A ``topologies`` axis (e.g. ``("mesh", "torus")``) adds the NoP
topology to the column structure plus per-row ``topology`` /
``nop_avg_hops`` columns; a ``heteros`` axis (e.g. ``(None,
"trunk:ws")``) likewise adds the per-quadrant package composition plus
``hetero`` / ``package_composition`` / ``trunk_utilization`` columns.
The defaults (both axes unset) keep the document byte-identical to the
PR 3 report.  See docs/TOPOLOGY.md and docs/HETERO.md.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis.scaling import chiplet_scaling_report
from ..sim.metrics import format_table
from ..sweep.runner import ScenarioSweep
from ..sweep.scenario import scenario_grid
from ..viz import sparkline

#: default grid: package sizes x DRAM budgets (see module docstring).
DEFAULT_NPUS = (1, 2, 4)
DEFAULT_DRAM_GBPS = (None, 6.0, 2.0)
DEFAULT_WORKLOADS = ("default",)
#: default topology axis: unset = the seed open mesh (byte-stable
#: report); pass e.g. ("mesh", "torus") for the NoP-topology columns.
DEFAULT_TOPOLOGIES = (None,)
#: default hetero axis: unset = homogeneous packages (byte-stable
#: report); pass e.g. (None, "trunk:ws") for per-quadrant columns.
DEFAULT_HETEROS = (None,)


def run(npus: Sequence[int] = DEFAULT_NPUS,
        dram_gbps: Sequence[float | None] = DEFAULT_DRAM_GBPS,
        workloads: Sequence[str] = DEFAULT_WORKLOADS,
        topologies: Sequence[str | None] = DEFAULT_TOPOLOGIES,
        heteros: Sequence[str | None] = DEFAULT_HETEROS) -> dict:
    """Run the scaling grid and build the report document."""
    grid = scenario_grid(npus=tuple(npus), workloads=tuple(workloads),
                         dram_gbps=tuple(dram_gbps),
                         topologies=tuple(topologies),
                         heteros=tuple(heteros))
    return chiplet_scaling_report(ScenarioSweep(grid).run().rows)


def render(result: dict | None = None) -> str:
    """Human-readable scaling report (table + per-column curves)."""
    result = result or run()
    has_topology = any("topology" in r for r in result["rows"])
    has_hetero = any("hetero" in r for r in result["rows"])
    display = []
    for r in result["rows"]:
        shown = {
            "workload": r["workload"],
            "dram": r["dram"],
        }
        if has_topology:
            shown["topology"] = r.get("topology") or "mesh"
        if has_hetero:
            shown["hetero"] = r.get("hetero") or "-"
        shown.update({
            "npus": r["npus"],
            "chiplets": r["chiplets"],
            "pipe_ms": r["pipe_ms"],
            "fps": r["steady_fps"],
            "speedup": r["speedup"],
            "efficiency": r["scaling_efficiency"],
            "throttled": "DRAM" if r["dram_throttled"] else "-",
        })
        if has_topology:
            shown["avg_hops"] = r.get("nop_avg_hops", "-")
        if has_hetero:
            shown["trunk_util"] = r.get("trunk_utilization", "-")
        display.append(shown)
    axes_label = "npus x workload x DRAM budget"
    if has_topology:
        axes_label += " x topology"
    if has_hetero:
        axes_label += " x hetero"
    parts = [format_table(
        display, f"Chiplet-count scaling ({axes_label})")]

    curves: dict[tuple, list] = {}
    for r in result["rows"]:
        label = r["dram"]
        if "topology" in r:
            label = f"{label}/{r['topology']}"
        if "hetero" in r:
            label = f"{label}/{r['hetero']}"
        curves.setdefault((r["workload"], label), []).append(r["speedup"])
    for (workload, dram), speedups in sorted(curves.items()):
        parts.append(f"  {workload:>12s} @ {dram:<10s} "
                     f"speedup {sparkline(speedups)}  "
                     f"{' -> '.join(f'{s:g}x' for s in speedups)}")
    for wall in result["dram_wall"]:
        parts.append(
            f"  DRAM wall: {wall['workload']} @ {wall['dram']} stops "
            f"scaling at {wall['first_throttled_npus']} NPU(s) — the "
            f"package streams weights faster than DRAM can deliver them")
    if not result["throttled_points"]:
        parts.append("  no DRAM-throttled points in this grid")
    return "\n".join(parts)
