"""repro-lint driver: file discovery, rule orchestration, and reports.

``chiplet-npu lint`` (or ``python -m repro.devtools``) runs every
rule over ``src/repro`` plus the repo-level R3 docs check, prints
``path:line:col: RULE message`` diagnostics, and exits non-zero when any
survive the pragma filter.  Explicit file arguments run the per-file
rules on those files alone (with every rule in scope — how the self-test
fixtures are exercised).
"""

from __future__ import annotations

import argparse
import ast
import json
import pathlib

from .axes import DESIGN_DOCS_PATH, SWEEP_DOCS_PATH, check_flag_table
from .diagnostics import Diagnostic, scan_pragmas
from .rules import (
    R1_PACKAGES,
    R2_ALLOWED_SUFFIXES,
    R4_PACKAGES,
    check_determinism,
    check_gated_columns,
    check_hash_hygiene,
    check_unit_suffixes,
)

#: rule ID -> one-line description (the ``--list-rules`` output and the
#: vocabulary docs/LINT.md documents).
RULES = {
    "R1": "determinism: no wall-clock/entropy calls or unordered-set "
          "iteration in row/key/artifact-producing packages "
          f"({', '.join(sorted(R1_PACKAGES))})",
    "R2": "plan-key hygiene: hashlib only inside "
          f"{' and '.join(R2_ALLOWED_SUFFIXES)} "
          "(plan_key_hash / PlanStore.key_hash own key construction)",
    "R3": "docs flag tables: every flag of the sweep and design "
          "parsers has a row in the docs/SWEEP.md and docs/DESIGN.md "
          "flag tables, and no row names a flag its parser lacks",
    "R4": "gated columns: sweep row keys outside the frozen fixtures "
          "are written behind only-when-set guards",
    "R5": "units naming: numeric fields/columns carry unit suffixes "
          "(_s/_ms/_ghz/_gbps/_j/_bytes/...), never bare quantity words",
}


def find_repo_root(start: pathlib.Path | None = None) -> pathlib.Path:
    """The repo root: nearest ancestor holding ``src/repro``.

    Defaults to the checkout this module was imported from, so the lint
    CLI works from any working directory.
    """
    here = start or pathlib.Path(__file__).resolve()
    for candidate in [here, *here.parents]:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    raise FileNotFoundError(
        f"no src/repro tree above {here}; pass --root explicitly")


def iter_source_files(root: pathlib.Path) -> list:
    """Every lintable module under ``src/repro``, in sorted order."""
    return sorted((root / "src" / "repro").rglob("*.py"))


def load_frozen_columns(root: pathlib.Path) -> frozenset:
    """Union of row keys across the ``tests/data/frozen_*.json`` fixtures.

    The R4 baseline: any fixture whose document carries a ``row`` object
    contributes that object's keys.  A repo without fixtures yields an
    empty set, which disables R4 rather than flagging everything.
    """
    columns: set = set()
    for fixture in sorted((root / "tests" / "data").glob("frozen_*.json")):
        try:
            doc = json.loads(fixture.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        row = doc.get("row") if isinstance(doc, dict) else None
        if isinstance(row, dict):
            columns.update(row)
    return frozenset(columns)


def _package_of(path: pathlib.Path, root: pathlib.Path) -> str | None:
    """Subpackage of ``src/repro`` a file lives in; None when outside.

    ``""`` marks top-level modules (``cli.py``); ``None`` marks explicit
    out-of-tree files (self-test fixtures), which get every rule.
    """
    try:
        rel = path.resolve().relative_to(root / "src" / "repro")
    except ValueError:
        return None
    return rel.parts[0] if len(rel.parts) > 1 else ""


def lint_file(path: pathlib.Path, root: pathlib.Path,
              frozen_columns: frozenset) -> list:
    """Run the per-file rules (R1/R2/R4/R5) on one module."""
    try:
        rel = str(path.resolve().relative_to(root))
    except ValueError:
        rel = str(path)
    try:
        src = path.read_text()
        tree = ast.parse(src, filename=rel)
    except OSError as exc:
        return [Diagnostic("E0", rel, 1, 0, f"cannot read file: {exc}")]
    except SyntaxError as exc:
        return [Diagnostic("E0", rel, exc.lineno or 1, 0,
                           f"syntax error: {exc.msg}")]
    package = _package_of(path, root)
    diags: list = []
    if package is None or package in R1_PACKAGES:
        diags += check_determinism(rel, tree)
    diags += check_hash_hygiene(rel, tree)
    if package is None or package in R4_PACKAGES:
        diags += check_gated_columns(rel, tree, frozen_columns)
    diags += check_unit_suffixes(rel, tree)
    suppressions = scan_pragmas(src)
    return [d for d in diags
            if not suppressions.is_suppressed(d.rule, d.line)]


def lint_repo_docs(root: pathlib.Path) -> list:
    """Run the repo-level R3 check: the docs flag tables against the
    ``sweep`` and ``design`` parsers of the imported ``repro.cli``."""
    from ..cli import _design_parser, _sweep_parser
    diags: list = []
    for rel, parser in ((SWEEP_DOCS_PATH, _sweep_parser()),
                        (DESIGN_DOCS_PATH, _design_parser())):
        target = root / rel
        if not target.is_file():
            diags.append(Diagnostic("R3", rel, 1, 0,
                                    "flag table doc missing from the repo"))
            continue
        diags += check_flag_table(parser, target.read_text(), rel)
    return diags


def run_lint(paths: list | None = None,
             root: pathlib.Path | None = None) -> tuple:
    """Lint the repo (default) or explicit files.

    Returns ``(diagnostics, checked_file_count)``.  The repo run covers
    every module under ``src/repro`` plus R3; explicit paths run the
    per-file rules only, with all of them in scope regardless of
    location — the contract the fixture self-tests rely on.
    """
    root = root or find_repo_root()
    frozen = load_frozen_columns(root)
    diags: list = []
    if paths:
        targets = [pathlib.Path(p) for p in paths]
    else:
        targets = iter_source_files(root)
        diags += lint_repo_docs(root)
    for target in targets:
        diags += lint_file(target, root, frozen)
    return sorted(diags, key=lambda d: d.sort_key), len(targets)


def render_report(diags: list, checked: int) -> dict:
    """The JSON report document (also the ``--output`` artifact)."""
    return {
        "checked_files": checked,
        "issues": [d.to_dict() for d in diags],
        "rules": RULES,
    }


def render_text(diags: list, checked: int) -> str:
    lines = [d.format() for d in diags]
    noun = "issue" if len(diags) == 1 else "issues"
    lines.append(f"repro-lint: {len(diags)} {noun} "
                 f"({checked} files checked, rules "
                 f"{'/'.join(sorted(RULES))})")
    return "\n".join(lines)


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chiplet-npu lint",
        description="repro-lint: the repo's determinism-contract static "
                    "analysis (rules R1-R5, see docs/LINT.md).")
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: the whole "
                             "src/repro tree plus the R3 docs check)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: auto-detected)")
    parser.add_argument("--json", action="store_true",
                        help="emit the JSON report on stdout")
    parser.add_argument("--output", default=None,
                        help="also write the JSON report to this file")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule IDs and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule}: {description}")
        return 0

    root = pathlib.Path(args.root).resolve() if args.root \
        else find_repo_root()
    diags, checked = run_lint(args.paths, root=root)
    report = render_report(diags, checked)
    if args.output:
        out = pathlib.Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True)
                       + "\n")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_text(diags, checked))
    return 1 if diags else 0
