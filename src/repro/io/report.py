"""One-shot reproduction report: every experiment in a single document."""

from __future__ import annotations

import pathlib

from ..experiments import ALL_EXPERIMENTS

#: experiments in paper order for the report
_ORDER = ("fig3", "fig4", "fig5to8", "table1", "fig9", "table2", "fig10",
          "table3", "fig11", "scaling")

_HEADER = """\
# Reproduction report

Auto-generated by `chiplet-npu report`.  One section per paper artifact.
"""


def generate_report(path: str | pathlib.Path | None = None) -> str:
    """Run every experiment and render a markdown report."""
    sections = [_HEADER]
    for name in _ORDER:
        module = ALL_EXPERIMENTS[name]
        sections.append(f"## {name}\n")
        sections.append("```")
        sections.append(module.render(module.run()))
        sections.append("```\n")
    text = "\n".join(sections)
    if path is not None:
        pathlib.Path(path).write_text(text + "\n")
    return text
