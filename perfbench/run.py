#!/usr/bin/env python3
"""Host-time benchmark of ``chiplet-npu sweep`` and ``chiplet-npu design``.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 50
    python3 perfbench/run.py --workload design-search --trace 1
    python3 perfbench/run.py --workload all       # every workload in turn

One process acts as a closed-loop single caller: it runs one *pass* (a
whole sweep or design search) after another until ``--seconds`` have
passed.  Every pass is serial.  The last line of standard output is
a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every number
is host time or a count; the simulated results are checked unchanged
through SHA-256 digests of each pass's output.  See ``METRICS.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space for plan stores, inside the checkout.
SCRATCH = ROOT / ".perfbench_tmp"

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import grids, layers  # noqa: E402
from perfbench.spans import (  # noqa: E402
    Tracer, covered, inclusive_times, nearest_rank, self_times)

WORKLOADS = ("sweep-cold", "design-search")
#: passes an untraced run makes at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: set-up repetitions per untraced run; setup_s is the fastest.
SETUP_REPS = 15
#: nominal host time of :func:`reference_seconds`; ``ops_per_s`` is the
#: throughput of a host that runs the reference task in this time.
REFERENCE_S = 0.16
#: what a fresh interpreter imports before it can run a workload.
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import repro.sweep.runner, repro.design; "
                "print(time.perf_counter() - t)")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def committed_digests() -> dict:
    """Seed-0 output digests committed beside the benchmark."""
    return json.loads((BENCH_DIR / "digests.json").read_text())


@dataclass
class Pass:
    """One measured pass: host time and work."""

    start_ns: int
    end_ns: int
    ops: int
    failed: int
    #: ns gaps between successive serial ``run_iter`` yields (sweeps).
    gaps_ns: list[int] = field(default_factory=list)
    #: memo counter deltas over the pass.
    counters: dict = field(default_factory=dict)
    #: plan-store shard files on disk after the pass (sweeps).
    shards: int = 0
    #: materialized share of the candidates (design).
    materialized_fraction: float = 0.0

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _counter_delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in after}


class _Checked:
    """Output checking shared by the workloads.

    Seed 0 compares against the committed digest; any other seed against
    the first output the run produced.
    """

    expected: str | None
    ops: int

    def _verdict(self, text: str, missing: int) -> int:
        """Failed ops of a pass: a mismatch fails every op."""
        digest = _digest(text)
        if self.expected is None:
            self.expected = digest
        return self.ops if digest != self.expected else missing


class SweepWorkload(_Checked):
    """A serial cold sweep into a fresh, empty plan store."""

    def __init__(self, seed: int, scratch: pathlib.Path):
        self.seed = seed
        self.scratch = scratch
        self.grid: list = []
        self.expected = (committed_digests()["sweep_rows"]
                         if seed == 0 else None)
        self.store: pathlib.Path | None = None

    @property
    def ops(self) -> int:
        return len(self.grid)

    def _fresh_store(self) -> pathlib.Path:
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
        self.store = pathlib.Path(tempfile.mkdtemp(dir=self.scratch))
        return self.store

    def setup(self) -> None:
        self.grid = grids.sweep_grid(self.seed)

    def run_pass(self) -> Pass:
        from repro.sweep.runner import ScenarioSweep
        store = self._fresh_store()
        layers.clear_memos()
        gc.collect()
        before = layers.memo_counters()
        stamps = []
        start = time.perf_counter_ns()
        try:
            sweep = ScenarioSweep(self.grid, workers=1,
                                  store_path=store, strict=False)
            items = []
            for item in sweep.run_iter():
                stamps.append(time.perf_counter_ns())
                items.append(item)
            result = sweep.merge(items)
            text = result.rows_json()
        except Exception:
            traceback.print_exc()
            return Pass(start, time.perf_counter_ns(), self.ops, self.ops)
        end = time.perf_counter_ns()
        failed = self._verdict(text, self.ops - len(result.rows))
        gaps = [b - a for a, b in zip([start] + stamps, stamps)]
        shards = sum(1 for f in store.iterdir()
                     if f.is_file() and not f.name.startswith("."))
        return Pass(start, end, self.ops, failed, gaps,
                    _counter_delta(before, layers.memo_counters()), shards)


def design_output(result) -> str:
    """The design search's checked output.

    The frontier report rounds its numbers, so the unrounded frontier
    rows and every candidate's proxy scores ride along: a change in the
    last digit of any simulated number changes the digest.
    """
    return json.dumps({
        "report": result.report(),
        "rows": result.rows,
        "proxies": [[c.proxy_pipe_ms, c.proxy_energy_j, c.pruned]
                    for c in result.candidates],
    }, sort_keys=True)


class DesignWorkload(_Checked):
    """A serial, cold design search with a pipe-latency target."""

    def __init__(self, seed: int):
        self.seed = seed
        self.space = None
        self.expected = (committed_digests()["design_output"]
                         if seed == 0 else None)

    @property
    def ops(self) -> int:
        return self.space.size

    def setup(self) -> None:
        self.space = grids.design_space(self.seed)

    def run_pass(self) -> Pass:
        from repro.design import DesignSearch, DesignTargets
        layers.clear_memos()
        gc.collect()
        before = layers.memo_counters()
        start = time.perf_counter_ns()
        try:
            result = DesignSearch(
                self.space,
                DesignTargets(pipe_ms=grids.DESIGN_PIPE_MS)).run()
            text = design_output(result)
        except Exception:
            traceback.print_exc()
            return Pass(start, time.perf_counter_ns(), self.ops, self.ops)
        end = time.perf_counter_ns()
        failed = self._verdict(text, self.ops - len(result.candidates))
        return Pass(start, end, self.ops, failed,
                    counters=_counter_delta(before, layers.memo_counters()),
                    materialized_fraction=len(result.rows) / self.ops)


def make_workload(name: str, seed: int, scratch: pathlib.Path):
    if name == "design-search":
        return DesignWorkload(seed)
    return SweepWorkload(seed, scratch=scratch)


def import_seconds() -> float:
    """Time a fresh interpreter takes to import the entry points."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.split()[-1])


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def reference_seconds() -> float:
    """Host time of a fixed pure-Python task that does not use the program.

    It runs between passes and measures how fast the host is at that
    moment: dict and tuple churn, float sums, object allocation, sorting
    and JSON, the kinds of work a pass does.
    """
    # Free the last pass's memos first: the task then reuses their
    # memory instead of raising peak_rss_mb.
    layers.clear_memos()
    gc.collect()
    start = time.perf_counter()
    for rep in range(3):
        table: dict = {}
        for i in range(40000):
            key = (i % 97, i % 89, rep)
            table[key] = table.get(key, 0.0) + i * 1.0001
        records = [{"a": i, "b": float(i), "c": (i, i + 1)}
                   for i in range(30000)]
        items = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
        text = json.dumps([[*key, value] for key, value in items[:2000]])
        if len(json.loads(text)) + len(records) != 32000:
            raise AssertionError("reference task miscounted")
    return time.perf_counter() - start


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(name: str, seed: int, seconds: float,
                 scratch: pathlib.Path) -> dict:
    """The end-to-end metrics of one workload."""
    workload = make_workload(name, seed, scratch)
    setups = []
    for _ in range(SETUP_REPS):
        imports = import_seconds()
        start = time.perf_counter()
        workload.setup()
        setups.append(imports + time.perf_counter() - start)
    passes = []
    references = [reference_seconds()]
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        passes.append(workload.run_pass())
        references.append(reference_seconds())
    # Each pass's wall time in units of the reference task, timed on
    # both sides of it: other tenants slow both alike (see METRICS.md).
    scaled = [p.wall_s / ((before + after) / 2)
              for p, before, after in zip(passes, references, references[1:])]
    failed = sum(p.failed for p in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(p.ops for p in passes),
        "failed": failed,
        "metrics": {
            # The fastest set-up, as timeit reports: on a shared host,
            # slower ones measure other tenants, not the program.
            "setup_s": _metric(min(setups), "s"),
            "ops_per_s": _metric(
                workload.ops / (REFERENCE_S * statistics.median(scaled)),
                "1/s"),
            "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        },
    }


#: per-layer metrics beyond ``<span>_calls`` / ``<span>_ms``, with units.
EXTRA_LAYER_METRICS = {
    "core.plancache.lookups": "count",
    "core.plancache.misses": "count",
    "core.plancache.store_hits": "count",
    "core.plancache.hit_rate": "ratio",
    "cost.evaluate.lookups": "count",
    "cost.evaluate.misses": "count",
    "cost.evaluate.seeded": "count",
    layers.PAIRS_PRICED: "count",
    "workloads.distinct_configs": "count",
    "design.materialized_fraction": "ratio",
    "core.planstore.shards": "count",
    "sweep.runner.overhead_ms": "ms",
    "sweep.scenario_p50_ms": "ms",
    "sweep.scenario_p90_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_share": "ratio",
}


#: spans whose ``_ms`` is total, not self, time: the phase wraps other
#: layers entirely, so its self time is only call overhead.
INCLUSIVE_SPANS = {"design.materialize"}


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in layers.SPAN_NAMES:
        units[f"{span}_calls"] = "count"
        units[f"{span}_ms"] = "ms"
    units.update(EXTRA_LAYER_METRICS)
    return units


def pass_layers(run: Pass, inst: layers.Instrumentation,
                sweep: bool) -> dict:
    """Per-layer metrics of one traced pass."""
    spans = inst.tracer.spans()
    calls = Counter(span.name for span in spans)
    own = self_times(spans)
    total = inclusive_times(spans)
    out = {}
    for name in layers.SPAN_NAMES:
        out[f"{name}_calls"] = calls[name]
        times = total if name in INCLUSIVE_SPANS else own
        out[f"{name}_ms"] = times.get(name, 0) / 1e6
    out.update(run.counters)
    lookups = run.counters["core.plancache.lookups"]
    out["core.plancache.hit_rate"] = (
        (lookups - run.counters["core.plancache.misses"]) / lookups
        if lookups else 0.0)
    out[layers.PAIRS_PRICED] = inst.tallies[layers.PAIRS_PRICED]
    out["workloads.distinct_configs"] = len(inst.args["workloads.build"])
    out["design.materialized_fraction"] = run.materialized_fraction
    out["core.planstore.shards"] = run.shards
    wall_ns = run.end_ns - run.start_ns
    # Runner dispatch cost. A design pass is mostly build, pricing and
    # proxy, which have spans of their own, so it reports none.
    in_scenarios = total.get("sweep.runner.run_scenario", 0)
    out["sweep.runner.overhead_ms"] = (
        (wall_ns - in_scenarios) / 1e6 if sweep else 0.0)
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    out["trace.unattributed_share"] = (
        wall_ns - covered(run.start_ns, run.end_ns, roots)) / wall_ns
    return out


def run_traced(name: str, seed: int, seconds: float,
               scratch: pathlib.Path) -> dict:
    """The per-layer metrics of one workload, from traced passes.

    Untraced and traced passes alternate; the traced ones give the
    per-layer numbers, the untraced ones the per-scenario percentiles
    and the tracing overhead.
    """
    workload = make_workload(name, seed, scratch)
    workload.setup()
    inst = layers.Instrumentation(Tracer())
    plain: list[Pass] = []
    traced: list[Pass] = []
    per_pass: list[dict] = []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        plain.append(workload.run_pass())
        inst.reset()
        with inst:
            run = workload.run_pass()
        traced.append(run)
        per_pass.append(pass_layers(
            run, inst, sweep=isinstance(workload, SweepWorkload)))
        inst.reset()
    units = layer_units()
    values = {name: statistics.median(p[name] for p in per_pass)
              for name in units if name in per_pass[0]}
    values["trace.overhead_pct"] = 100 * (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in plain) - 1)
    gaps_ms = [gap / 1e6 for p in plain for gap in p.gaps_ns]
    values["sweep.scenario_p50_ms"] = (
        nearest_rank(gaps_ms, 50) if gaps_ms else 0.0)
    values["sweep.scenario_p90_ms"] = (
        nearest_rank(gaps_ms, 90) if gaps_ms else 0.0)
    runs = plain + traced
    failed = sum(p.failed for p in runs)
    return {
        "correct": failed == 0,
        "attempted": sum(p.ops for p in runs),
        "failed": failed,
        "metrics": {name: _metric(values[name], unit)
                    for name, unit in units.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process; prints each metric by name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            raise SystemExit(f"workload {name} exited {out.returncode}")
        result = json.loads(out.stdout.splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:14s} {metric:40s} {entry['value']:14.6g} "
                  f"{entry['unit']}")
            total["metrics"][f"{name}/{metric}"] = entry
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the declared default grid")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="how long to keep running passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        SCRATCH.mkdir(exist_ok=True)
        scratch = pathlib.Path(tempfile.mkdtemp(dir=SCRATCH))
        try:
            run = run_traced if args.trace else run_untraced
            result = run(args.workload, args.seed, args.seconds, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            try:
                SCRATCH.rmdir()
            except OSError:  # another run still uses it
                pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
