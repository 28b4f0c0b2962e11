"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def _help_run(words: list[str]) -> tuple[str, list[str]]:
    """``chiplet-npu WORDS --help`` in a fresh interpreter: its standard
    output with whitespace collapsed (argparse wraps to the terminal's
    width) and the ``repro.`` modules it loaded besides ``repro.cli``.

    A fresh interpreter because this test process has imported them all;
    ``python -m repro.cli`` through runpy, as ``-m`` runs it.
    """
    import pathlib
    import subprocess
    import sys

    import repro
    script = (
        "import json, runpy, sys\n"
        f"sys.argv = ['chiplet-npu', *{words!r}, '--help']\n"
        "try:\n"
        "    runpy.run_module('repro.cli', run_name='__main__',\n"
        "                     alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", script], cwd=src,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    *text, modules = out.stdout.splitlines()
    return " ".join("\n".join(text).split()), [
        name for name in json.loads(modules)
        if name.startswith("repro.") and name != "repro.cli"]


class TestCli:
    def test_table3_renders(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "[16X,16Y]" in out

    def test_json_output_parses(self, capsys):
        assert main(["fig11", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "fig11" in payload
        assert payload["fig11"]["points"]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_help_imports_no_repro_module(self):
        out, loaded = _help_run([])
        assert "paper artifact to regenerate" in out
        assert loaded == []

    @pytest.mark.parametrize("words,flag", [
        (["sweep"], "--workers"),
        (["design"], "--target-pipe-ms"),
        (["report", "scaling"], "--dram-gbps"),
    ], ids=["sweep", "design", "report-scaling"])
    def test_subcommand_help_imports_no_model_module(self, words, flag):
        # The axis flags come from AXIS_SPECS, whose module imports the
        # model only inside the token parsers that check a value.
        out, loaded = _help_run(words)
        assert flag in out
        assert loaded == ["repro.sweep", "repro.sweep.axes"]

    def test_static_experiment_names_match_the_package(self):
        from repro.cli import EXPERIMENTS
        from repro.experiments import ALL_EXPERIMENTS
        assert sorted(EXPERIMENTS) == sorted(ALL_EXPERIMENTS)


class TestSweepCli:
    def test_sweep_table_output(self, capsys):
        assert main(["sweep", "--tolerances", "1.0,1.1"]) == 0
        out = capsys.readouterr().out
        assert "Scenario sweep (2 scenarios" in out
        assert "plan cache:" in out

    def test_sweep_json_output(self, capsys):
        assert main(["sweep", "--tolerances", "1.05",
                     "--het-budgets", "none,2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["scenarios"] == 2
        assert "plan_cache" in payload["summary"]
        assert payload["rows"][1]["trunk_label"] == "Het(2)"

    def test_sweep_writes_output_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--npus", "1", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["scenarios"] == 1

    def test_sweep_rejects_bad_axis(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--tolerances", "abc"])

    @pytest.mark.parametrize("flag, value, message", [
        ("--tolerances", "0.5", "tolerance must be a number >= 1.0"),
        ("--tolerances", "nan", "tolerance must be a number >= 1.0"),
        ("--hetero", "trunk:@nan", "quadrant frequency_ghz must be positive"),
        # a quadrant is one engine: Het(k) is the trunk DSE's budget
        ("--hetero", "trunk:ws#4", "--het-budgets"),
    ])
    def test_sweep_rejects_out_of_range_value(self, flag, value, message,
                                              capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", flag, value])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_sweep_rejects_invalid_workers(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--workers", "0"])

    def test_delta_sweep_flag_is_gone(self, capsys):
        # A removed flag fails as unknown; it is never accepted and
        # silently ignored.
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--delta-from", "results/journal"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --delta-from" \
            in capsys.readouterr().err

    def test_bad_topology_names_axis_and_choices(self, capsys):
        # `--axis topology=ring` must fail with a parser error that names
        # the offending axis and lists the valid topology kinds.
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "topology=ring"])
        err = capsys.readouterr().err
        assert "'ring'" in err and "'topology'" in err
        assert "mesh, torus" in err

    def test_bad_topology_grid_errors_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--topologies", "torus-8x"])
        err = capsys.readouterr().err
        assert "'torus-8x'" in err and "KIND-WxH" in err

    def test_malformed_tile_axis_errors_cleanly(self, capsys):
        # a truncated tuple token must produce the named-axis message,
        # not a bare cast traceback.
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "native_tile=16x"])
        err = capsys.readouterr().err
        assert "'16x'" in err and "'native_tile'" in err
        assert "ROWSxCOLS" in err

    def test_unknown_axis_name_lists_known_axes(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "pes=256"])
        err = capsys.readouterr().err
        assert "unknown sweep axis 'pes'" in err
        assert "topology" in err  # the new axis is advertised

    def test_axis_without_values_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "topology"])
        err = capsys.readouterr().err
        assert "NAME=VALUES" in err

    def test_explicit_grid_with_npus_conflict_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--npus", "2", "--topologies", "torus-8x8"])
        err = capsys.readouterr().err
        assert "npus=2" in err

    def test_bad_hetero_dataflow_names_axis_and_choices(self, capsys):
        # `--axis hetero=trunk:xx` must fail with a parser error that
        # names the offending axis and lists the valid dataflow styles.
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "hetero=trunk:xx"])
        err = capsys.readouterr().err
        assert "'trunk:xx'" in err and "'hetero'" in err
        assert "os, ws, rs" in err

    def test_unknown_hetero_quadrant_lists_valid_names(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--hetero", "bogus:ws"])
        err = capsys.readouterr().err
        assert "'bogus'" in err and "'hetero'" in err
        assert "fe, spatial, temporal, trunk" in err

    def test_malformed_hetero_spec_errors_cleanly(self, capsys):
        # a quadrant with an empty SPEC must produce the named-axis
        # message, not a bare traceback.
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "hetero=trunk:"])
        err = capsys.readouterr().err
        assert "'trunk:'" in err and "'hetero'" in err
        with pytest.raises(SystemExit):
            main(["sweep", "--hetero", "trunk:ws@fast"])
        err = capsys.readouterr().err
        assert "'fast'" in err and "'hetero'" in err

    def test_hetero_axis_reaches_rows(self, capsys):
        assert main(["sweep", "--hetero", "none,trunk:ws", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["rows"]
        assert "hetero" not in rows[0]
        assert rows[1]["hetero"] == "trunk:ws"
        assert rows[1]["package_composition"].endswith("trunk:ws@2")
        assert rows[1]["pipe_ms"] > rows[0]["pipe_ms"]  # WS trunks cost

    def test_report_scaling_hetero_axis(self, capsys):
        assert main(["report", "scaling", "--npus", "1",
                     "--dram-gbps", "none",
                     "--hetero", "none,trunk:ws", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["axes"]["heteros"] == ["trunk:ws"]
        het_rows = [r for r in payload["rows"] if "hetero" in r]
        assert het_rows and all(
            0 < r["trunk_utilization"] <= 1 for r in het_rows)

    def test_topology_axis_reaches_rows(self, capsys):
        assert main(["sweep", "--topologies", "mesh,torus", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["rows"]
        assert [r["topology"] for r in rows] == ["mesh", "torus"]
        assert rows[1]["nop_avg_hops"] < rows[0]["nop_avg_hops"]

    def test_report_scaling_topology_axis(self, capsys):
        assert main(["report", "scaling", "--npus", "1",
                     "--dram-gbps", "none",
                     "--topologies", "mesh,torus", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["axes"]["topologies"] == ["mesh", "torus"]

    def test_flags_before_subcommand(self, capsys):
        # argparse allows options before the positional; both shared and
        # sweep-specific flags must reach the sweep parser.
        assert main(["--json", "sweep", "--tolerances", "1.0,1.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["scenarios"] == 2

    def test_experiment_rejects_stray_arguments(self):
        with pytest.raises(SystemExit):
            main(["fig11", "--tolerances", "1.0"])

    def test_sweep_stream_prints_rows_then_report(self, capsys):
        assert main(["sweep", "--tolerances", "1.0,1.1", "--stream"]) == 0
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out
        assert "Scenario sweep (2 scenarios" in out
        assert "layer-cost cache:" in out

    def test_sweep_stream_json_emits_row_lines(self, capsys):
        assert main(["sweep", "--tolerances", "1.0,1.1",
                     "--stream", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [json.loads(lines[0]), json.loads(lines[1])]
        assert {r["tolerance"] for r in rows} == {1.0, 1.1}
        summary = json.loads("\n".join(lines[2:]))
        assert summary["summary"]["scenarios"] == 2

    def test_sweep_stream_artifact_matches_batch(self, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        streamed = tmp_path / "streamed.json"
        assert main(["sweep", "--tolerances", "1.0,1.1",
                     "--output", str(batch)]) == 0
        assert main(["sweep", "--tolerances", "1.0,1.1", "--stream",
                     "--output", str(streamed)]) == 0
        capsys.readouterr()
        assert json.loads(batch.read_text())["rows"] == \
            json.loads(streamed.read_text())["rows"]

    def test_sweep_store_warm_start(self, tmp_path, capsys):
        from repro.core import clear_plan_cache
        from repro.cost import clear_cache
        store = tmp_path / "store"
        clear_cache()
        clear_plan_cache()
        assert main(["sweep", "--tolerances", "1.0",
                     "--store", str(store), "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["summary"]["plan_cache"]["misses"] > 0
        assert list(store.glob("plans-*.json"))
        # fresh in-memory caches, same store: everything from disk
        clear_cache()
        clear_plan_cache()
        assert main(["sweep", "--tolerances", "1.0",
                     "--store", str(store), "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["summary"]["plan_cache"]["misses"] == 0
        assert second["summary"]["plan_cache"]["store_hits"] > 0
        assert second["rows"] == first["rows"]

    def test_sweep_rejects_url_store(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit):
            main(["sweep", "--store", "http://127.0.0.1:1"])
        assert "plan stores are directories" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestDesignCli:
    def test_design_table_output(self, capsys):
        assert main(["design", "--dataflows", "os,ws",
                     "--target-pipe-ms", "100"]) == 0
        out = capsys.readouterr().out
        assert "searched 2 candidate(s)" in out
        assert "plan cache:" in out

    def test_design_json_output(self, capsys):
        assert main(["design", "--dataflows", "os,ws", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["axes"]["dataflow"] == ["os", "ws"]
        assert payload["search"]["candidates"] == 2
        assert payload["best"] in {e["key"] for e in payload["frontier"]}

    def test_design_flags_before_subcommand(self, tmp_path, capsys):
        out = tmp_path / "frontier.json"
        assert main(["--json", "--output", str(out), "design",
                     "--frequencies-ghz", "1.0,2.0"]) == 0
        stdout = capsys.readouterr().out
        assert out.read_text() == stdout.rstrip("\n") + "\n"

    def test_design_output_document_deterministic(self, tmp_path, capsys):
        args = ["design", "--dataflows", "os,ws",
                "--axis", "hetero=none,trunk:ws", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_design_rejects_bad_axis(self, capsys):
        with pytest.raises(SystemExit):
            main(["design", "--axis", "topology=ring"])
        assert "topology" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--target-pipe-ms", "0", "target pipe_ms must be positive"),
        ("--target-pipe-ms", "nan", "target pipe_ms must be positive"),
        ("--axis", "hetero=trunk:ws@nan",
         "quadrant frequency_ghz must be positive"),
        ("--hetero", "none,trunk:ws#4", "--het-budgets"),
    ])
    def test_design_rejects_out_of_range_value(self, flag, value, message,
                                               capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["design", flag, value])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_design_rejects_oversized_het_budget(self, capsys):
        # Ranking checks every budget against its trunk quadrant; like
        # `sweep --het-budgets 99`, that is a usage error, not a crash.
        with pytest.raises(SystemExit) as exit_info:
            main(["design", "--het-budgets", "99"])
        assert exit_info.value.code == 2
        assert "exceeds the trunk quadrant capacity" \
            in capsys.readouterr().err

    def test_design_rejects_oversized_het_budget_with_empty_frontier(
            self, capsys):
        # The proxy ignores the budget, so a target that prunes every
        # candidate must not let an over-budget one through.
        with pytest.raises(SystemExit) as exit_info:
            main(["design", "--het-budgets", "99",
                  "--target-pipe-ms", "0.001"])
        assert exit_info.value.code == 2
        assert "exceeds the trunk quadrant capacity" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["design"], ["report", "scaling"]],
                             ids=["design", "report-scaling"])
    @pytest.mark.parametrize("flag", [["--workers", "2"], ["--store", "DIR"]],
                             ids=["workers", "store"])
    def test_only_sweep_takes_workers_and_store(self, command, flag,
                                                capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(command + flag)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestResilienceCli:
    @pytest.fixture
    def keys(self):
        """Scenario keys of ``sweep --tolerances 1.0,1.1``, grid order."""
        from repro.sweep import scenario_grid
        return [s.key for s in scenario_grid(tolerances=(1.0, 1.1))]

    def test_injected_fault_retries_transparently(self, capsys, keys,
                                                  scripted_faults):
        scripted_faults(keys[0])
        assert main(["sweep", "--tolerances", "1.0,1.1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["scenarios"] == 2
        assert "failures" not in payload["summary"]

    def test_keep_going_exits_2_with_manifest(self, capsys, keys,
                                              scripted_faults):
        scripted_faults(keys[1], times=3)
        code = main(["sweep", "--tolerances", "1.0,1.1",
                     "--keep-going", "--json"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["scenarios"] == 1
        manifest = payload["summary"]["failures"]
        assert manifest[0]["error"] == "OSError"
        assert manifest[0]["attempts"] == 3

    def test_strict_quarantine_errors_out(self, capsys, keys,
                                          scripted_faults):
        scripted_faults(keys[1], times=3)
        with pytest.raises(SystemExit):
            main(["sweep", "--tolerances", "1.0,1.1"])
        err = capsys.readouterr().err
        assert "quarantined" in err
        assert "--keep-going" in err

    def test_journal_flag_checkpoints_and_resumes(self, tmp_path, capsys):
        journal = tmp_path / "journal"
        assert main(["sweep", "--tolerances", "1.0,1.1",
                     "--journal", str(journal), "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert len(list(journal.glob("outcome-*.json"))) == 2
        # the same command again resumes: replayed rows are identical
        assert main(["sweep", "--tolerances", "1.0,1.1",
                     "--journal", str(journal), "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["rows"] == first["rows"]

    def test_stream_reports_quarantined_scenarios(self, capsys, keys,
                                                  scripted_faults):
        scripted_faults(keys[0], times=3)
        code = main(["sweep", "--tolerances", "1.0,1.1", "--stream",
                     "--keep-going"])
        assert code == 2
        out = capsys.readouterr().out
        assert "QUARANTINED" in out
        assert "quarantined 1 scenario(s):" in out
