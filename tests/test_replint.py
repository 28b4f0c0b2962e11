"""Self-tests for repro-lint (rules R1-R5, pragmas, CLI, repo cleanliness).

The per-rule behavior is locked by good/bad fixture pairs under
``tests/data/lint/``; the R3 docs check is proven *live* against the
real ``sweep`` and ``design`` parsers by doctoring copies of their docs
(a stale row, a missing axis row and a missing execution-flag row must
each make it fire).  The whole-repo clean run is the gate CI enforces
via ``chiplet-npu lint``.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

import repro
from repro.cli import _design_parser, _sweep_parser
from repro.devtools import (
    RULES,
    check_flag_table,
    run_lint,
    scan_pragmas,
)
from repro.devtools.axes import DESIGN_DOCS_PATH, SWEEP_DOCS_PATH
from repro.devtools.runner import (
    find_repo_root,
    load_frozen_columns,
    main,
    render_text,
)

ROOT = find_repo_root()
LINT_DIR = ROOT / "tests" / "data" / "lint"


@pytest.fixture(scope="module")
def repo_lint():
    """The whole-repo run, linted once for every test that needs it."""
    return run_lint(root=ROOT)


@pytest.fixture()
def stub_repo_lint(monkeypatch, repo_lint):
    """Serve ``repo_lint`` to the CLI entry point instead of a second
    whole-repo run, after checking the CLI asked for exactly that run."""
    def stub(paths=None, root=None):
        assert paths == [] and root == ROOT
        return repo_lint

    monkeypatch.setattr("repro.devtools.runner.run_lint", stub)


def lint_fixture(name: str):
    diags, checked = run_lint([str(LINT_DIR / name)], root=ROOT)
    assert checked == 1
    return diags


def rules_of(diags) -> set:
    return {d.rule for d in diags}


# ----------------------------------------------------------------------
# The repo itself is clean
# ----------------------------------------------------------------------

class TestRepoClean:
    def test_whole_repo_clean(self, repo_lint):
        diags, checked = repo_lint
        assert diags == [], "\n".join(d.format() for d in diags)
        assert checked >= 60  # every module under src/repro

    def test_rule_registry(self):
        assert set(RULES) == {"R1", "R2", "R3", "R4", "R5"}

    def test_frozen_columns_loaded(self):
        frozen = load_frozen_columns(ROOT)
        # The baseline columns every default sweep row carries.
        assert {"key", "pipe_ms", "e2e_ms", "energy_j",
                "tolerance"} <= frozen
        # Axis-gated columns must NOT be in the baseline.
        assert "dram_throttled" not in frozen
        assert "nop_avg_hops" not in frozen


# ----------------------------------------------------------------------
# Per-rule fixtures
# ----------------------------------------------------------------------

class TestRuleFixtures:
    @pytest.mark.parametrize("name,rule", [
        ("r1_bad.py", "R1"), ("r2_bad.py", "R2"),
        ("r4_bad.py", "R4"), ("r5_bad.py", "R5"),
    ])
    def test_bad_fixture_flags_only_its_rule(self, name, rule):
        diags = lint_fixture(name)
        assert diags, f"{name} produced no diagnostics"
        assert rules_of(diags) == {rule}
        for diag in diags:
            assert diag.line > 0
            assert name in diag.path
            # file:line plus the rule ID, the CI-visible contract.
            assert re.match(rf"^\S*{re.escape(name)}:\d+:\d+: {rule} ",
                            diag.format())

    @pytest.mark.parametrize("name", [
        "r1_good.py", "r2_good.py", "r4_good.py", "r5_good.py",
    ])
    def test_good_fixture_clean(self, name):
        assert lint_fixture(name) == []

    def test_r1_catches_each_call_family(self):
        messages = "\n".join(d.message for d in lint_fixture("r1_bad.py"))
        for fragment in ("time.time", "time.sleep", "datetime.now",
                         "os.urandom", "random.choice",
                         "unseeded random.Random", "unordered set"):
            assert fragment in messages

    def test_r4_catches_loop_and_dynamic_update(self):
        messages = "\n".join(d.message for d in lint_fixture("r4_bad.py"))
        assert "'contention_ms'" in messages  # via module-level tuple
        assert "dynamic row.update" in messages

    def test_r5_names_the_suffix_vocabulary(self):
        messages = "\n".join(d.message for d in lint_fixture("r5_bad.py"))
        assert "'latency'" in messages and "'energy'" in messages
        assert "_ms" in messages and "_j" in messages


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------

class TestPragmas:
    def test_pragma_fixture_fully_suppressed(self):
        assert lint_fixture("pragmas.py") == []

    def test_line_pragma_scopes_one_line(self):
        src = ("import time\n"
               "a = time.time()  # repro-lint: disable=R1\n"
               "b = time.time()\n")
        sup = scan_pragmas(src)
        assert sup.is_suppressed("R1", 2)
        assert not sup.is_suppressed("R1", 3)
        assert not sup.is_suppressed("R2", 2)

    def test_file_pragma_and_rule_lists(self):
        sup = scan_pragmas("# repro-lint: disable-file=R1, R5\n")
        assert sup.is_suppressed("R1", 99)
        assert sup.is_suppressed("R5", 1)
        assert not sup.is_suppressed("R4", 1)

    def test_pragma_in_string_literal_is_inert(self):
        sup = scan_pragmas('x = "# repro-lint: disable-file=R1"\n')
        assert not sup.is_suppressed("R1", 1)


# ----------------------------------------------------------------------
# R3 docs flag tables
# ----------------------------------------------------------------------

class TestAxisCoherence:
    """R3 against the real parsers, with doctored copies of the docs."""

    @pytest.fixture()
    def surfaces(self):
        return _sweep_parser(), (ROOT / SWEEP_DOCS_PATH).read_text()

    @staticmethod
    def without_row(docs: str, flag: str) -> str:
        pruned = "\n".join(line for line in docs.splitlines()
                           if not line.startswith(f"| `{flag}`"))
        assert pruned != docs
        return pruned

    def test_real_tree_coherent(self, surfaces):
        assert check_flag_table(*surfaces, SWEEP_DOCS_PATH) == []

    def test_fires_on_stale_docs_row(self, surfaces):
        parser, docs = surfaces
        stale = docs.replace(
            "| `--tolerances` |",
            "| `--retired-axis` | gone | `none` | stale |\n"
            "| `--tolerances` |")
        diags = check_flag_table(parser, stale, SWEEP_DOCS_PATH)
        assert any(d.rule == "R3" and "--retired-axis" in d.message
                   for d in diags)

    def test_fires_when_docs_row_removed(self, surfaces):
        parser, docs = surfaces
        pruned = self.without_row(docs, "--topologies")
        diags = check_flag_table(parser, pruned, SWEEP_DOCS_PATH)
        assert any(d.rule == "R3" and "--topologies" in d.message
                   and "docs" in d.message for d in diags)

    def test_fires_on_undocumented_execution_flag(self, surfaces):
        # *Every* sweep-parser flag needs a docs table row, not just the
        # axis flags.
        parser, docs = surfaces
        pruned = self.without_row(docs, "--stream")
        diags = check_flag_table(parser, pruned, SWEEP_DOCS_PATH)
        assert any(d.rule == "R3" and "--stream" in d.message
                   and "documents" in d.message for d in diags)

    @pytest.fixture()
    def design_docs(self):
        return (ROOT / DESIGN_DOCS_PATH).read_text()

    def test_real_tree_design_surface_coherent(self, design_docs):
        assert check_flag_table(_design_parser(), design_docs,
                                DESIGN_DOCS_PATH) == []

    def test_fires_when_design_axis_row_removed(self, design_docs):
        pruned = self.without_row(design_docs, "--hetero")
        diags = check_flag_table(_design_parser(), pruned,
                                 DESIGN_DOCS_PATH)
        assert any(d.rule == "R3" and "--hetero" in d.message
                   and "DESIGN.md" in d.message for d in diags)

    def test_fires_when_design_docs_row_removed(self, design_docs):
        pruned = self.without_row(design_docs, "--target-pipe-ms")
        diags = check_flag_table(_design_parser(), pruned,
                                 DESIGN_DOCS_PATH)
        assert any(d.rule == "R3" and "--target-pipe-ms" in d.message
                   and "DESIGN.md" in d.message for d in diags)

    def test_fires_on_stale_design_docs_row(self, design_docs):
        stale = design_docs.replace(
            "| `--target-pipe-ms` |",
            "| `--retired-knob` | gone | off | stale |\n"
            "| `--target-pipe-ms` |")
        diags = check_flag_table(_design_parser(), stale,
                                 DESIGN_DOCS_PATH)
        assert any(d.rule == "R3" and "--retired-knob" in d.message
                   for d in diags)


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------

class TestCli:
    def test_repo_run_exits_zero(self, capsys, stub_repo_lint):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "repro-lint: 0 issues" in out

    def test_bad_fixture_exits_nonzero_with_location(self, capsys):
        assert main([str(LINT_DIR / "r2_bad.py")]) == 1
        out = capsys.readouterr().out
        assert re.search(r"r2_bad\.py:\d+:\d+: R2 ", out)

    def test_json_report_artifact(self, tmp_path, capsys):
        report_path = tmp_path / "replint.json"
        code = main([str(LINT_DIR / "r1_bad.py"), "--json",
                     "--output", str(report_path)])
        assert code == 1
        document = json.loads(report_path.read_text())
        assert document == json.loads(capsys.readouterr().out)
        assert document["checked_files"] == 1
        assert {issue["rule"] for issue in document["issues"]} == {"R1"}
        assert set(document["rules"]) == set(RULES)

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert f"{rule}: " in out

    def test_module_entry_point_runs_without_warnings(self):
        # `python -m repro.devtools` runs the package's __main__, so the
        # runner module is imported once and runpy has nothing to warn.
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools", "--list-rules"],
            cwd=src, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        for rule in RULES:
            assert f"{rule}: " in proc.stdout

    def test_text_summary_wording(self):
        text = render_text([], 7)
        assert "0 issues (7 files checked" in text

    def test_chiplet_npu_dispatch(self, capsys, stub_repo_lint):
        from repro.cli import main as cli_main
        assert cli_main(["lint"]) == 0
        assert "repro-lint: 0 issues" in capsys.readouterr().out
