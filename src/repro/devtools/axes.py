"""R3: the docs flag tables match the ``sweep`` and ``design`` parsers.

Both parsers declare their axis flags from ``AXIS_SPECS`` through
``repro.cli.add_axis_flags``, so the parsers agree with the axis table
by construction.  What can still drift is the documentation: each
subcommand's doc carries flag tables that must name every option its
parser defines, and nothing else.  The check is a pure function of a
parser and a doc text, so the self-tests can doctor the docs without
touching the real tree.
"""

from __future__ import annotations

import argparse
import re

from .diagnostics import Diagnostic

#: the doc holding each subcommand's flag tables, relative to the root.
SWEEP_DOCS_PATH = "docs/SWEEP.md"
DESIGN_DOCS_PATH = "docs/DESIGN.md"

#: first backticked token of a docs flag-table row: ``| `--flag` | ...``
_DOCS_ROW_RE = re.compile(r"^\|\s*`(--[a-z0-9-]+)`")


def parser_flags(parser: argparse.ArgumentParser) -> list[str]:
    """Every ``--flag`` the parser defines, ``--help`` aside."""
    return [option for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"]


def docs_flags(docs_text: str) -> dict[str, int]:
    """``--flag -> line`` for every flag-table row of a doc."""
    flags: dict[str, int] = {}
    for lineno, line in enumerate(docs_text.splitlines(), start=1):
        match = _DOCS_ROW_RE.match(line.strip())
        if match:
            flags[match.group(1)] = lineno
    return flags


def check_flag_table(parser: argparse.ArgumentParser, docs_text: str,
                     docs_path: str) -> list[Diagnostic]:
    """One R3 diagnostic per parser flag without a table row in the doc,
    and per table row naming a flag the parser does not define."""
    docs = docs_flags(docs_text)
    if not docs:
        return [Diagnostic("R3", docs_path, 1, 0,
                           "no flag table rows found (| `--flag` | ...)")]
    flags = parser_flags(parser)
    first_row = min(docs.values())
    diags = [Diagnostic("R3", docs_path, first_row, 0,
                        f"{parser.prog} defines {flag} but no {docs_path} "
                        f"table row documents it")
             for flag in flags if flag not in docs]
    diags += [Diagnostic("R3", docs_path, line, 0,
                         f"{docs_path} table row lists {flag} but "
                         f"{parser.prog} defines no such flag")
              for flag, line in docs.items() if flag not in flags]
    return diags
