"""Performance report records and table rendering helpers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PerfReport:
    """Headline metrics for one pipeline execution configuration."""

    label: str
    e2e_s: float
    pipe_s: float
    energy_j: float
    utilization: float

    @property
    def e2e_ms(self) -> float:
        return self.e2e_s * 1e3

    @property
    def pipe_ms(self) -> float:
        return self.pipe_s * 1e3

    @property
    def edp_j_ms(self) -> float:
        """Energy-delay product (J*ms) against the pipelining latency."""
        return self.energy_j * self.pipe_ms

    def row(self) -> dict:
        return {
            "config": self.label,
            "e2e_ms": round(self.e2e_ms, 1),
            "pipe_ms": round(self.pipe_ms, 1),
            "energy_j": round(self.energy_j, 3),
            "edp_j_ms": round(self.edp_j_ms, 1),
            "utilization_pct": round(self.utilization * 100, 2),
        }


def format_table(rows: list[dict], title: str | None = None) -> str:
    """Render a list of uniform dicts as an aligned ASCII table."""
    if not rows:
        return "(empty table)"
    headers = list(rows[0].keys())
    cells = [[str(r.get(h, "")) for h in headers] for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in cells))
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
