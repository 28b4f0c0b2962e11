"""ASCII floorplan rendering of a scheduled MCM package.

The paper's Figs. 5-8 are mesh diagrams showing which chiplet runs which
block.  This renders the same view in a terminal: one cell per chiplet,
labelled with the (abbreviated) group it executes, its per-frame busy time,
and its dataflow style when heterogeneous.
"""

from __future__ import annotations

from ..core.schedule import Schedule

#: compact display labels for the canonical perception groups
_ABBREV = {
    "FE_BFPN": "FE",
    "S_LIFT": "sLF",
    "S_Q_PROJ": "sQ",
    "S_KV_PROJ": "sKV",
    "S_ATTN": "sAT",
    "S_FFN": "sFF",
    "T_Q_PROJ": "tQ",
    "T_KV_PROJ": "tKV",
    "T_ATTN": "tAT",
    "T_FFN": "tFF",
    "T_POOL": "tPL",
    "OCC_TR": "OCC",
    "LANE_TR": "LAN",
    "DET_TR": "DET",
}


def _label(name: str) -> str:
    if name in _ABBREV:
        return _ABBREV[name]
    return name[:3]


def chiplet_labels(schedule: Schedule) -> dict[int, str]:
    """Map chiplet id -> short label of the group(s) it hosts."""
    labels: dict[int, list[str]] = {}
    for name, gs in schedule.groups.items():
        if gs.host is not None:
            continue  # colocated groups ride on the host's label
        for idx, cid in enumerate(gs.chiplet_ids):
            tag = _label(name)
            if gs.plan.n_chiplets > 1:
                tag = f"{tag}{idx}"
            labels.setdefault(cid, []).append(tag)
    return {cid: "+".join(tags) for cid, tags in labels.items()}


def render_floorplan(schedule: Schedule, show_busy: bool = True,
                     cell_width: int = 9) -> str:
    """Render the package mesh with group assignments (Figs. 5-8 style)."""
    pkg = schedule.package
    labels = chiplet_labels(schedule)
    busy = schedule.chiplet_busy()

    def cell(cid: int) -> list[str]:
        top = labels.get(cid, "idle")
        if pkg.engine(pkg.chiplet(cid).quadrant).dataflow != "os":
            top += "*"
        lines = [top[:cell_width].center(cell_width)]
        if show_busy:
            lines.append(f"{busy[cid] * 1e3:5.1f}ms".center(cell_width))
        return lines

    rows: list[str] = []
    width, height = pkg.topology.width, pkg.topology.height
    border = "+" + "+".join("-" * cell_width for _ in range(width)) + "+"
    rows.append(border)
    for y in range(height):
        cells = [cell(pkg.at(x, y).chiplet_id) for x in range(width)]
        for line_idx in range(len(cells[0])):
            rows.append(
                "|" + "|".join(c[line_idx] for c in cells) + "|")
        rows.append(border)
    if any(engine.dataflow != "os" for engine in pkg.engines):
        rows.append("(* = weight-stationary chiplet)")
    return "\n".join(rows)
