"""Deterministic Pareto frontier reports for the design search.

The design-search twin of :mod:`repro.analysis.scaling`'s report
machinery: a pure function from a finished
:class:`~repro.design.search.DesignSearchResult` to a JSON-safe
document.  Candidate ordering is the space's canonical enumeration
order, metrics are rounded once here (so every run serializes
byte-identically), and everything machine-dependent — cache hit rates
and wall clocks — is excluded by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..design.search import DesignSearchResult


def design_frontier_rows(result: "DesignSearchResult") -> list[dict]:
    """Frontier entries (proxy score + materialized row), in the
    space's canonical candidate order."""
    out = []
    for candidate, row in zip(result.frontier, result.rows):
        entry = {
            "index": candidate.index,
            "key": row["key"],
            "scenario": candidate.scenario.to_dict(),
            "proxy_pipe_ms": round(candidate.proxy_pipe_ms, 3),
            "proxy_energy_j": round(candidate.proxy_energy_j, 4),
            "pipe_ms": round(row["pipe_ms"], 2),
            "e2e_ms": round(row["e2e_ms"], 2),
            "steady_fps": round(1e3 / row["pipe_ms"], 2),
            "energy_j": round(row["energy_j"], 3),
            "edp_j_ms": round(row["edp_j_ms"], 2),
            "utilization": round(row["utilization"], 4),
            "chiplets": row["used_chiplets"],
        }
        # Axis-gated columns mirror the sweep rows: present only when
        # the axis is set, so homogeneous spaces stay byte-stable.
        if "package_composition" in row:
            entry["package_composition"] = row["package_composition"]
        if "trunk_label" in row:
            entry["trunk_label"] = row["trunk_label"]
            entry["trunk_edp_j_ms"] = round(row["trunk_edp_j_ms"], 2)
        out.append(entry)
    return out


def design_frontier_report(result: "DesignSearchResult") -> dict:
    """The full frontier document built from one search result.

    Deterministic by construction: axes come from the declared space,
    frontier rows from pure sweep pricing, and the search stats count
    work (candidates, pruned, dominated, materialized, priced pairs) —
    never caches or clocks.  Serializing with sorted keys yields the
    same bytes for any execution mode of the same search.
    """
    rows = design_frontier_rows(result)
    best = result.best
    return {
        "axes": result.space.to_dict(),
        "targets": {
            "pipe_ms": result.targets.pipe_ms,
            "energy_j": result.targets.energy_j,
        },
        "frontier": rows,
        "best": None if best is None else best["key"],
        "search": result.stats(),
    }


def design_frontier_table(report: dict) -> list[str]:
    """Human-readable frontier lines for the CLI (one per candidate)."""
    lines = []
    header = (f"{'key':<44s} {'pipe_ms':>8s} {'fps':>7s} "
              f"{'energy_j':>9s} {'edp':>8s} {'chiplets':>8s}")
    lines.append(header)
    lines.append("-" * len(header))
    for entry in report["frontier"]:
        marker = "*" if entry["key"] == report["best"] else " "
        lines.append(
            f"{entry['key']:<44s} {entry['pipe_ms']:>8.2f} "
            f"{entry['steady_fps']:>7.2f} {entry['energy_j']:>9.3f} "
            f"{entry['edp_j_ms']:>8.2f} {entry['chiplets']:>8d}{marker}")
    search = report["search"]
    lines.append(
        f"searched {search['candidates']} candidate(s): "
        f"{search['pruned']} pruned by targets, "
        f"{search['dominated']} dominated, "
        f"{search['materialized']} materialized "
        f"({search['priced_pairs']} distinct layer-engine pairs priced)")
    return lines
