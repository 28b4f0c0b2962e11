"""Chiplet-count scaling reports over sweep rows.

:func:`chiplet_scaling_rows` / :func:`chiplet_scaling_report` turn sweep
rows over the ``npus x workload x dram_gbps`` axes into the first-class
chiplet-count scaling report ("Chiplets on Wheels"-style): per
(workload, DRAM budget) column, the speedup and scaling efficiency of
adding NPU modules — and where an undersized DRAM interface flattens the
curve, because past that point the package streams weights faster than
LPDDR can deliver them.
"""

from __future__ import annotations


def _dram_label(dram_gbps: float | None) -> str:
    """Column label for one DRAM budget (None = detached/compute-only)."""
    return "unbounded" if dram_gbps is None else f"{dram_gbps:g} GB/s"


def chiplet_scaling_rows(rows: list[dict]) -> list[dict]:
    """Chiplet-count scaling table from ``npus x workload x dram`` rows.

    Each input row is one sweep row (see
    :func:`repro.sweep.runner.run_scenario`).  Output rows are grouped
    into (workload, DRAM budget) columns; within a column, ``speedup``
    is relative to the column's smallest package and
    ``scaling_efficiency`` divides that by the added compute
    (``npus / min npus``).  The output is a pure, deterministic function
    of the input rows — safe to ship as an artifact.
    """
    columns: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["workload"], row.get("dram_gbps"), row.get("topology"),
               row.get("hetero"))
        columns.setdefault(key, []).append(row)
    out: list[dict] = []
    for (workload, dram_gbps, topology, hetero), col in sorted(
            columns.items(),
            key=lambda kv: (kv[0][0],
                            kv[0][1] is not None, kv[0][1] or 0.0,
                            kv[0][2] or "", kv[0][3] or "")):
        col = sorted(col, key=lambda r: r["npus"])
        base = col[0]
        for row in col:
            compute_pipe_ms = row.get("compute_pipe_ms", row["pipe_ms"])
            speedup = base["pipe_ms"] / row["pipe_ms"]
            added = row["npus"] / base["npus"]
            entry = {
                "workload": workload,
                "dram": _dram_label(dram_gbps),
                "dram_gbps": dram_gbps,
                "npus": row["npus"],
                "chiplets": row["used_chiplets"],
                "pipe_ms": round(row["pipe_ms"], 2),
                "compute_pipe_ms": round(compute_pipe_ms, 2),
                "steady_fps": round(1e3 / row["pipe_ms"], 2),
                "compute_fps": round(1e3 / compute_pipe_ms, 2),
                "speedup": round(speedup, 3),
                "scaling_efficiency": round(speedup / added, 3),
                "energy_j": round(row["energy_j"], 3),
                "dram_throttled": bool(row.get("dram_throttled", False)),
            }
            # Topology/hetero columns appear only when the axis was set
            # on the input rows, so default-grid reports stay
            # byte-identical.
            if topology is not None:
                entry["topology"] = topology
                entry["nop_avg_hops"] = round(row["nop_avg_hops"], 3)
            if hetero is not None:
                entry["hetero"] = hetero
                entry["package_composition"] = row["package_composition"]
                entry["trunk_utilization"] = round(
                    row["stage_utilization"]["TRUNKS"], 4)
            out.append(entry)
    return out


def chiplet_scaling_report(rows: list[dict]) -> dict:
    """The full scaling-report document built from sweep rows.

    Deterministic by construction (cache statistics and other
    placement-dependent counters are deliberately excluded): running the
    same grid twice — serially, in parallel, or streamed — produces the
    same bytes once serialized with sorted keys.
    """
    table = chiplet_scaling_rows(rows)
    throttled = [r for r in table if r["dram_throttled"]]
    # ``table`` is already in canonical column order, so first-occurrence
    # insertion order keeps dram_wall consistent with rows (sorting the
    # label strings would misplace budgets >= 10 GB/s).
    walls: dict[tuple, int] = {}
    for r in throttled:
        col = (r["workload"], r["dram"], r.get("topology"),
               r.get("hetero"))
        if col not in walls:
            walls[col] = r["npus"]
    axes = {
        "npus": sorted({r["npus"] for r in rows}),
        "workloads": sorted({r["workload"] for r in rows}),
        "dram_gbps": sorted(
            {r.get("dram_gbps") for r in rows
             if r.get("dram_gbps") is not None}) + (
                 ["unbounded"] if any(
                     r.get("dram_gbps") is None for r in rows) else []),
    }
    # The topology/hetero axes (and per-wall labels) appear only when
    # the input rows carry one, keeping the default document byte-stable.
    topologies = sorted({r["topology"] for r in table if "topology" in r})
    if topologies:
        axes["topologies"] = topologies
    heteros = sorted({r["hetero"] for r in table if "hetero" in r})
    if heteros:
        axes["heteros"] = heteros

    def _wall(col: tuple, n: int) -> dict:
        wl, dram, topology, hetero = col
        entry = {"workload": wl, "dram": dram, "first_throttled_npus": n}
        if topology is not None:
            entry["topology"] = topology
        if hetero is not None:
            entry["hetero"] = hetero
        return entry

    return {
        "axes": axes,
        "rows": table,
        "throttled_points": [
            {"workload": r["workload"], "dram": r["dram"],
             "npus": r["npus"], "steady_fps": r["steady_fps"],
             "compute_fps": r["compute_fps"],
             **({"topology": r["topology"]} if "topology" in r else {}),
             **({"hetero": r["hetero"]} if "hetero" in r else {})}
            for r in throttled
        ],
        "dram_wall": [_wall(col, n) for col, n in walls.items()],
    }
