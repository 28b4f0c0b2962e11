"""Command-line entry point: regenerate any paper table or figure.

Examples::

    chiplet-npu table2          # Table II comparison
    chiplet-npu fig10           # dual-NPU scaling trace
    chiplet-npu all             # every experiment
    python -m repro.cli fig3

Scenario sweeps (the ``sweep`` subcommand) fan a grid of scheduler runs
across worker processes and merge the results deterministically::

    chiplet-npu sweep --tolerances 1.0,1.05,1.2 --npus 1,2 --workers 4
    chiplet-npu sweep --nop-gbps 25,50,100 --workloads default,hires \\
        --het-budgets none,2,4 --json --output results/sweep.json
    chiplet-npu sweep --dataflows os,ws --frequencies-ghz none,1.0 \\
        --axis native_tile=16x16,8x8 --dram-gbps none,6
    chiplet-npu sweep --nop-gbps 25,50,100 --topologies mesh,torus
    chiplet-npu sweep --hetero none,trunk:ws,trunk:ws@1.2
    chiplet-npu sweep --workloads default,hires --workers 4 \\
        --stream --store results/planstore

Axes are comma-separated lists; ``none`` keeps an axis at its default
(``--nop-gbps none`` = 100 GB/s, ``--het-budgets none`` = skip the trunk
DSE, ``--dram-gbps none`` = compute-only steady state).  Any axis can
also be given as ``--axis NAME=VALUES`` with its canonical name (see
``repro.sweep.axes.AXIS_SPECS``); malformed values fail with an error naming
the offending axis.  ``--stream`` prints each row as it finishes
(completion order) while the merged artifact stays byte-identical to the
batch path; ``--store DIR`` warm-starts every worker from a shared
disk-backed plan store and flushes newly computed plans back for the
next run.  The report includes the shared plan-cache and
layer-cost-cache hit/miss statistics, so cache-effectiveness regressions
are visible alongside the metrics.

Sweeps are fault-tolerant (see ``docs/RESILIENCE.md``): transient
failures retry at once, up to three attempts, ``--journal DIR``
checkpoints every outcome so a rerun of the same command resumes instead
of re-pricing, and ``--keep-going`` finishes a grid with quarantined
scenarios as a partial result (exit status 2, failures listed in the
report)::

    chiplet-npu sweep --npus 1,2,4 --workers 4 \\
        --journal results/journal --keep-going

``design`` closes the DSE loop (see ``docs/DESIGN.md``): declare a
joint package-design space over the same axes (including per-quadrant
tokens like ``trunk:ws`` and Het(k) trunk-DSE budgets), rank every
candidate with a roofline proxy over its memoized layer costs, prune
against latency/energy targets, and materialize only the Pareto
frontier into full sweep rows — the frontier report is byte-identical
from run to run::

    chiplet-npu design --dataflows os,ws --frequencies-ghz 1.0,2.0 \\
        --hetero none,trunk:ws --het-budgets none,4 --target-pipe-ms 100
    chiplet-npu design --npus 1,2 --dram-gbps none,6 --max-energy-j 2 \\
        --json --output results/frontier.json

The chiplet-count scaling report (``report scaling``) sweeps
``npus x workload x dram_gbps`` serially through the same engine and
emits the scaling table/figure::

    chiplet-npu report scaling --npus 1,2,4 --dram-gbps none,6,2
    chiplet-npu report scaling --json --output results/scaling_report.json

``lint`` runs repro-lint, the repo's determinism-contract static
analysis (rules R1-R5, see ``docs/LINT.md``), over the ``src/repro``
tree (or explicit files) and exits non-zero on any finding::

    chiplet-npu lint
    chiplet-npu lint --json --output results/replint.json
    chiplet-npu lint --list-rules
"""

from __future__ import annotations

import argparse
import json
import sys

#: every experiment module in :mod:`repro.experiments`, named here so that
#: ``--help`` imports none of them; each runs from its own import.
EXPERIMENTS = ("fig10", "fig11", "fig3", "fig4", "fig5to8", "fig9",
               "scaling", "table1", "table2", "table3")


def add_axis_flags(parser: argparse.ArgumentParser,
                   names: tuple[str, ...] | None = None,
                   defaults: dict[str, str] | None = None,
                   helps: dict[str, str] | None = None) -> None:
    """Declare axis flags on ``parser`` from :data:`AXIS_SPECS`.

    ``names`` picks and orders the axes; by default every axis is
    declared, followed by ``--axis NAME=VALUES``, which reaches any of
    them by canonical name.  ``defaults`` and ``helps`` replace an
    axis's default or help text, by canonical name.
    """
    from .sweep.axes import AXIS_SPECS

    defaults, helps = defaults or {}, helps or {}
    for name in names or AXIS_SPECS:
        spec = AXIS_SPECS[name]
        parser.add_argument(spec.flag,
                            default=defaults.get(name, spec.default),
                            help=helps.get(name, spec.help))
    if names is None:
        parser.add_argument("--axis", action="append", default=[],
                            metavar="NAME=VALUES",
                            help="extra axis by canonical name (e.g. "
                                 "--axis native_tile=16x16,8x8); may "
                                 "repeat, overrides the dedicated flag "
                                 "for that axis")


def axis_texts(args: argparse.Namespace) -> dict[str, str]:
    """The axis texts parsed by :func:`add_axis_flags`, by canonical name.

    Axes come in the parser's declaration order; ``--axis`` overrides
    apply last.  A malformed ``--axis`` raises ``ValueError``.
    """
    from .sweep.axes import AXIS_SPECS

    # canonical axis name by the argparse dest of its flag
    by_dest = {spec.flag[2:].replace("-", "_"): name
               for name, spec in AXIS_SPECS.items()}
    texts = {by_dest[dest]: text for dest, text in vars(args).items()
             if dest in by_dest}
    for item in getattr(args, "axis", ()):
        name, sep, values = item.partition("=")
        if not sep or not name or not values:
            raise ValueError(f"--axis expects NAME=VALUES, got {item!r}")
        texts[name.strip()] = values
    return texts


def _sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiplet-npu sweep",
        description="Run a scenario grid (tolerance x NoP bandwidth x "
                    "package size x workload x het budget) across worker "
                    "processes with deterministic result merging.")
    add_axis_flags(parser)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (1 = serial)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="directory of a shared disk-backed plan "
                             "store: workers warm-start from it and flush "
                             "newly computed plans back")
    parser.add_argument("--stream", action="store_true",
                        help="print each scenario's row as it finishes "
                             "(completion order) before the merged report")
    parser.add_argument("--keep-going", action="store_true",
                        help="quarantine scenarios that fail (a "
                             "deterministic error at once, a transient one "
                             "after its retries) and finish with a partial "
                             "result (exit status 2) instead of failing "
                             "the whole sweep")
    parser.add_argument("--journal", default=None, metavar="DIR",
                        help="checkpoint every outcome to this journal "
                             "directory and resume from it: scenarios "
                             "already journaled are replayed, not "
                             "re-priced (byte-identical rows)")
    parser.add_argument("--json", action="store_true",
                        help="emit structured JSON instead of a table")
    parser.add_argument("--output", default=None,
                        help="also write the full sweep JSON to this file")
    return parser


def _run_sweep(argv: list[str]) -> int:
    parser = _sweep_parser()
    args = parser.parse_args(argv)
    # Imported once the arguments parse, so --help loads no runner.
    from .sim.metrics import format_table
    from .sweep import (
        ScenarioSweep,
        SweepFailure,
        SweepQuarantineError,
        scenario_grid,
    )
    from .sweep.axes import parse_grid_axes

    try:
        grid = scenario_grid(**parse_grid_axes(axis_texts(args)))
        sweep = ScenarioSweep(grid, workers=args.workers,
                              store_path=args.store,
                              strict=not args.keep_going,
                              journal=args.journal)
    except (ValueError, KeyError) as exc:
        # str(KeyError) wraps the message in repr quotes; unwrap it.
        parser.error(exc.args[0] if exc.args else str(exc))
    try:
        if args.stream:
            # Stream rows in completion order, then merge canonically —
            # the merged artifact is byte-identical to the batch path.
            outcomes = []
            for outcome in sweep.run_iter():
                outcomes.append(outcome)
                if isinstance(outcome, SweepFailure):
                    if args.json:
                        print(json.dumps(outcome.to_manifest(),
                                         sort_keys=True), flush=True)
                    else:
                        print(f"[{len(outcomes)}/{len(grid)}] "
                              f"{outcome.key}: QUARANTINED "
                              f"({outcome.error} after {outcome.attempts} "
                              f"attempt(s))", flush=True)
                    continue
                if args.json:
                    print(json.dumps(outcome.row, sort_keys=True),
                          flush=True)
                else:
                    row = outcome.row
                    print(f"[{len(outcomes)}/{len(grid)}] {row['key']}: "
                          f"pipe {row['pipe_ms']:.2f} ms, "
                          f"e2e {row['e2e_ms']:.1f} ms, "
                          f"{row['energy_j']:.3f} J", flush=True)
            result = sweep.merge(outcomes)
        else:
            result = sweep.run()
    except (ValueError, SweepQuarantineError) as exc:
        # e.g. a het budget larger than a scenario's trunk quadrant, or
        # a strict sweep refusing a grid with quarantined scenarios.
        parser.error(str(exc))

    if args.output:
        import pathlib

        from .io import save_sweep
        pathlib.Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        save_sweep(result, args.output)

    # A partial (quarantine-carrying) result exits 2 so scripts and CI
    # can tell "priced everything" from "kept going past failures".
    exit_status = 0 if result.complete else 2

    if args.json:
        if args.stream:
            # Rows already streamed as JSON lines; close with the summary
            # (the full merged document is available via --output).
            print(json.dumps({"summary": result.summary()},
                             indent=2, sort_keys=True))
        else:
            # Same serialization as save_sweep, so stdout and --output
            # (and rows_json, the determinism contract) are
            # byte-comparable.
            print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return exit_status

    # format_table derives headers from the first row, so the trunk and
    # hardware-axis columns must appear in every row once any scenario
    # sets them (unset axes show as the default marker).
    has_trunk = any("trunk_edp_j_ms" in r for r in result.rows)
    hw_columns = [
        ("df", "dataflow", lambda v: v),
        ("ghz", "frequency_ghz", lambda v: v),
        ("tile", "native_tile", lambda v: f"{v[0]}x{v[1]}"),
        ("dram", "dram_gbps", lambda v: v),
        ("topo", "topology", lambda v: v),
        ("hetero", "hetero", lambda v: v),
    ]
    shown_hw = [(label, field, fmt) for label, field, fmt in hw_columns
                if any(field in r for r in result.rows)]
    has_dram = any("dram_throttled" in r for r in result.rows)
    has_hops = any("nop_avg_hops" in r for r in result.rows)
    display = []
    for row in result.rows:
        shown = {
            "tol": row["tolerance"],
            "nop": row["nop_gbps"] or "def",
            "npus": row["npus"],
            "workload": row["workload"],
            "het": "-" if row["het_ws_budget"] is None
                   else row["het_ws_budget"],
        }
        for label, field, fmt in shown_hw:
            shown[label] = fmt(row[field]) if field in row else "def"
        shown.update({
            "pipe_ms": round(row["pipe_ms"], 2),
            "e2e_ms": round(row["e2e_ms"], 1),
            "energy_j": round(row["energy_j"], 3),
            "util_pct": round(row["utilization"] * 100, 1),
            "chiplets": row["used_chiplets"],
        })
        if has_dram:
            shown["dram_bound"] = ("yes" if row.get("dram_throttled")
                                   else "-")
        if has_hops:
            shown["avg_hops"] = (round(row["nop_avg_hops"], 2)
                                 if "nop_avg_hops" in row else "-")
        if has_trunk:
            shown["trunk_edp"] = (round(row["trunk_edp_j_ms"], 2)
                                  if "trunk_edp_j_ms" in row else "-")
        display.append(shown)
    if display:
        print(format_table(display,
                           f"Scenario sweep ({len(result.rows)} scenarios, "
                           f"workers={result.workers})"))
    else:
        print("Scenario sweep: no scenario priced successfully "
              f"(workers={result.workers})")
    summary = result.summary()
    cache = summary["plan_cache"]
    print(f"plan cache: {cache['hits']} hits / {cache['misses']} misses "
          f"({100 * cache['hit_rate']:.1f}% hit rate, "
          f"{cache['entries']} entries, "
          f"{cache['store_hits']} served from store)")
    layer = summary["layer_cost_cache"]
    print(f"layer-cost cache: {layer['hits']} hits / "
          f"{layer['misses']} misses "
          f"({100 * layer['hit_rate']:.1f}% hit rate, "
          f"{layer['entries']} entries)")
    if result.store_skipped:
        names = ", ".join(rec["file"] for rec in result.store_skipped)
        print(f"plan store: skipped {len(result.store_skipped)} "
              f"corrupt/stale shard(s): {names}")
    if result.journal_skipped:
        names = ", ".join(rec["file"] for rec in result.journal_skipped)
        print(f"journal: skipped {len(result.journal_skipped)} "
              f"corrupt/stale record(s): {names}")
    if result.failures:
        print(f"quarantined {len(result.failures)} scenario(s):")
        for failure in result.failures:
            print(f"  {failure.key}: {failure.error} after "
                  f"{failure.attempts} attempt(s)")
    return exit_status


def _scaling_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiplet-npu report scaling",
        description="Chiplet-count scaling report: sweep npus x workload "
                    "x DRAM bandwidth through the sweep engine and emit "
                    "the scaling table (speedup, efficiency, DRAM wall).")
    add_axis_flags(
        parser, ("npus", "dram_gbps", "workload", "topology", "hetero"),
        defaults={"npus": "1,2,4", "dram_gbps": "none,6,2"},
        helps={
            "dram_gbps": "comma-separated DRAM bandwidths in GB/s "
                         "('none' = compute-only column)",
            "topology": "comma-separated NoP topologies (mesh/torus; "
                        "'none' = the seed open mesh); setting this adds "
                        "topology and mean-hop columns",
            "hetero": "comma-separated per-quadrant hardware override "
                      "tokens (e.g. trunk:ws@1.2; 'none' = homogeneous "
                      "package); setting this adds composition and "
                      "trunk-utilization columns",
        })
    parser.add_argument("--json", action="store_true",
                        help="emit the deterministic JSON document "
                             "instead of the table")
    parser.add_argument("--output", default=None,
                        help="also write the JSON document to this file")
    return parser


def _run_scaling_report(argv: list[str]) -> int:
    parser = _scaling_parser()
    args = parser.parse_args(argv)
    from .experiments import scaling
    from .sweep.axes import parse_grid_axes

    try:
        result = scaling.run(**parse_grid_axes(axis_texts(args)))
    except (ValueError, KeyError) as exc:
        parser.error(exc.args[0] if exc.args else str(exc))

    # The document is a pure function of the grid (no cache counters or
    # timings), so the emitted bytes are deterministic run-to-run.
    document = json.dumps(result, indent=2, sort_keys=True)
    if args.output:
        import pathlib
        out = pathlib.Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(document + "\n")
    if args.json:
        print(document)
    else:
        print(scaling.render(result))
    return 0


def _design_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiplet-npu design",
        description="Joint package-design search: enumerate a declared "
                    "axis space, rank every candidate with a roofline "
                    "proxy over its memoized layer costs, prune against "
                    "latency/energy targets, and materialize only the "
                    "Pareto frontier into full sweep rows (deterministic "
                    "report; see docs/DESIGN.md).")
    add_axis_flags(parser)
    parser.add_argument("--target-pipe-ms", type=float, default=None,
                        metavar="MS",
                        help="prune candidates whose proxy pipe latency "
                             "exceeds this bound (the proxy is an "
                             "optimistic bound, so no candidate that "
                             "could meet the target is discarded)")
    parser.add_argument("--max-energy-j", type=float, default=None,
                        metavar="J",
                        help="prune candidates whose proxy per-frame "
                             "energy exceeds this bound")
    parser.add_argument("--json", action="store_true",
                        help="emit the deterministic frontier JSON "
                             "document instead of the table")
    parser.add_argument("--output", default=None,
                        help="also write the frontier JSON document to "
                             "this file")
    return parser


def _run_design(argv: list[str]) -> int:
    parser = _design_parser()
    args = parser.parse_args(argv)
    from .analysis import design_frontier_table
    from .design import DesignSearch, DesignSpace, DesignTargets

    try:
        space = DesignSpace.from_axis_texts(axis_texts(args))
        targets = DesignTargets(pipe_ms=args.target_pipe_ms,
                                energy_j=args.max_energy_j)
        # A ValueError here is also a het budget larger than some
        # candidate's trunk quadrant: ranking checks every budget.
        result = DesignSearch(space, targets=targets).run()
    except (ValueError, KeyError) as exc:
        parser.error(exc.args[0] if exc.args else str(exc))

    # The frontier document is a pure function of the declared space and
    # targets (search stats count work, never caches or clocks), so the
    # emitted bytes are identical from run to run.
    report = result.report()
    document = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        import pathlib
        out = pathlib.Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(document + "\n")
    if args.json:
        print(document)
        return 0
    for line in design_frontier_table(report):
        print(line)
    # Cache effectiveness prints beside the report, never inside it:
    # hit/miss counts depend on what the process priced before, the
    # frontier does not.
    cache = result.plan_cache.to_dict()
    print(f"plan cache: {cache['hits']} hits / "
          f"{cache['misses']} misses "
          f"({100 * cache['hit_rate']:.1f}% hit rate, "
          f"{cache['entries']} entries)")
    return 0


def _run_lint(argv: list[str]) -> int:
    from .devtools.runner import main as lint_main
    return lint_main(argv)


#: subcommands with their own parsers, by the words that name them; each
#: runner takes the rest of the command line.
_SUBCOMMANDS = {
    ("sweep",): _run_sweep,
    ("report", "scaling"): _run_scaling_report,
    ("lint",): _run_lint,
    ("design",): _run_design,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Dispatch before the main parser so a subcommand's flags (and its
    # --help) reach its own parser.
    for words, run in _SUBCOMMANDS.items():
        if tuple(argv[:len(words)]) == words:
            return run(argv[len(words):])

    parser = argparse.ArgumentParser(
        prog="chiplet-npu",
        description="Reproduce the multi-chiplet NPU perception study "
                    "(DATE 2025).")
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "design", "lint", "report",
                                       "sweep"],
        help="paper artifact to regenerate ('report' writes a full "
             "markdown reproduction report; 'sweep' runs a scenario "
             "grid, see 'chiplet-npu sweep --help'; 'design' searches a "
             "declared design space for its Pareto frontier, see "
             "'chiplet-npu design --help'; 'lint' runs the repro-lint "
             "static analysis, see 'chiplet-npu lint --help')")
    parser.add_argument(
        "--json", action="store_true",
        help="emit structured JSON instead of tables")
    parser.add_argument(
        "--output", default=None,
        help="file to write ('report' defaults to results/REPORT.md)")
    args, rest = parser.parse_known_args(argv)

    # Shared flags placed before a subcommand (--json sweep ...): re-emit
    # them ahead of the subcommand's own flags from ``rest`` so its parser
    # sees one canonical command line.
    line = [args.experiment, *rest]
    for words, run in _SUBCOMMANDS.items():
        if tuple(line[:len(words)]) == words:
            extra = ["--json"] if args.json else []
            if args.output:
                extra += ["--output", args.output]
            return run(extra + line[len(words):])
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")

    if args.experiment == "report":
        from .io import generate_report
        out = args.output or "results/REPORT.md"
        sys.stdout.write(f"writing {out}\n")
        import pathlib
        pathlib.Path(out).parent.mkdir(parents=True, exist_ok=True)
        generate_report(out)
        return 0

    from . import experiments

    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for name in names:
        module = getattr(experiments, name)
        result = module.run()
        if args.json:
            print(json.dumps({name: result}, indent=2, default=str))
        else:
            print(f"=== {name} ===")
            print(module.render(result))
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
