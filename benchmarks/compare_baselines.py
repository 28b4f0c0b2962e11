"""Gate CI on committed bench baselines (benches-as-baselines).

The benchmarks under ``benchmarks/`` emit machine-readable
``BENCH_*.json`` artifacts into ``results/``; this script compares them
against the committed copies in ``benchmarks/baselines/`` and fails the
build when a tracked metric regresses beyond its stated tolerance:

* **invariant metrics** (``exact``) must match the baseline exactly —
  row byte-identity flags, warm-miss counts, deterministic-report flags,
  DRAM-wall positions.  These are work-based properties that hold on any
  machine; any drift is a real regression (or an intentional change that
  must re-baseline via ``--update``).
* **wall-clock ratios** carry a generous tolerance because shared CI
  runners are noisy: a higher-is-better ratio (warm-from-disk speedup)
  may degrade to ``tolerance x baseline`` (default 0.4, i.e. keep at
  least 40% of the committed speedup); a lower-is-better ratio
  (``report_over_single``) may inflate to ``tolerance x baseline``
  (default 2.5x).  The measured values still land in the uploaded
  artifacts for per-PR inspection.

Usage::

    PYTHONPATH=src python benchmarks/compare_baselines.py
    python benchmarks/compare_baselines.py --results results \
        --baselines benchmarks/baselines
    python benchmarks/compare_baselines.py --update   # re-baseline

A baseline file without a fresh result fails the run (the bench stopped
emitting); a fresh result without a baseline is reported but does not
fail (a new bench not yet locked).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
DEFAULT_RESULTS = HERE.parent / "results"
DEFAULT_BASELINES = HERE / "baselines"


@dataclass(frozen=True)
class Gate:
    """One tracked metric and how it may move relative to the baseline."""

    #: dotted path into the BENCH json (e.g. "warm_plan_cache.misses")
    path: str
    #: "exact" | "min_ratio" (>= tol * baseline) | "max_ratio" (<= tol *)
    kind: str
    tolerance: float | None = None

    def check(self, current, baseline) -> tuple[bool, str]:
        """Return (ok, human-readable constraint)."""
        if self.kind == "exact":
            return current == baseline, f"== {baseline!r}"
        if self.kind == "min_ratio":
            floor = self.tolerance * baseline
            return current >= floor, (
                f">= {floor:.3g} ({self.tolerance:g} x baseline "
                f"{baseline:g})")
        if self.kind == "max_ratio":
            ceil = self.tolerance * baseline
            return current <= ceil, (
                f"<= {ceil:.3g} ({self.tolerance:g} x baseline "
                f"{baseline:g})")
        raise ValueError(f"unknown gate kind {self.kind!r}")


#: tracked metrics per BENCH artifact.
CHECKS: dict[str, list[Gate]] = {
    "BENCH_planstore.json": [
        Gate("rows_byte_identical", "exact"),
        Gate("warm_plan_cache.misses", "exact"),
        Gate("grid_scenarios", "exact"),
        Gate("speedup", "min_ratio", 0.4),
    ],
    "BENCH_design.json": [
        Gate("candidates", "exact"),
        Gate("frontier", "exact"),
        Gate("materialized", "exact"),
        Gate("materialized_fraction", "exact"),
        Gate("priced_pairs", "exact"),
        Gate("frontier_byte_identical", "exact"),
    ],
    "BENCH_scaling.json": [
        Gate("deterministic", "exact"),
        Gate("throttled_points", "exact"),
        Gate("dram_wall", "exact"),
        Gate("grid_scenarios", "exact"),
        Gate("report_over_single", "max_ratio", 2.5),
    ],
}


def dig(payload: dict, path: str):
    """Resolve a dotted path inside a loaded BENCH document."""
    node = payload
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(path)
        node = node[part]
    return node


def compare_file(name: str, results_dir: pathlib.Path,
                 baselines_dir: pathlib.Path) -> list[str]:
    """Compare one artifact; returns failure messages (empty = pass)."""
    baseline_path = baselines_dir / name
    current_path = results_dir / name
    gates = CHECKS.get(name)
    if not gates:
        # A committed baseline with no registered gates would otherwise
        # count as passing while gating nothing.
        return [f"{name}: baseline has no registered gates in CHECKS "
                f"(add them to compare_baselines.py)"]
    if not current_path.exists():
        return [f"{name}: no fresh result at {current_path} "
                f"(bench stopped emitting?)"]
    baseline = json.loads(baseline_path.read_text())
    current = json.loads(current_path.read_text())
    failures = []
    for gate in gates:
        try:
            base_value = dig(baseline, gate.path)
        except KeyError:
            failures.append(f"{name}: baseline lacks {gate.path!r} "
                            f"(re-baseline with --update)")
            continue
        try:
            value = dig(current, gate.path)
        except KeyError:
            failures.append(f"{name}: result lacks {gate.path!r}")
            continue
        ok, constraint = gate.check(value, base_value)
        verdict = "ok" if ok else "FAIL"
        print(f"  [{verdict:>4s}] {name}:{gate.path} = {value!r} "
              f"(need {constraint})")
        if not ok:
            failures.append(
                f"{name}: {gate.path} = {value!r} violates {constraint}")
    return failures


def update_baselines(results_dir: pathlib.Path,
                     baselines_dir: pathlib.Path) -> int:
    baselines_dir.mkdir(parents=True, exist_ok=True)
    copied = 0
    for name in sorted(CHECKS):
        src = results_dir / name
        if not src.exists():
            print(f"  skip {name}: no fresh result to promote")
            continue
        shutil.copyfile(src, baselines_dir / name)
        print(f"  re-baselined {name}")
        copied += 1
    return 0 if copied else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=pathlib.Path,
                        default=DEFAULT_RESULTS,
                        help="directory with fresh BENCH_*.json artifacts")
    parser.add_argument("--baselines", type=pathlib.Path,
                        default=DEFAULT_BASELINES,
                        help="directory with committed baselines")
    parser.add_argument("--update", action="store_true",
                        help="copy fresh results over the baselines "
                             "instead of comparing")
    args = parser.parse_args(argv)

    if args.update:
        return update_baselines(args.results, args.baselines)

    baselines = sorted(p.name for p in args.baselines.glob("BENCH_*.json")) \
        if args.baselines.is_dir() else []
    if not baselines:
        print(f"no baselines under {args.baselines}; nothing to gate",
              file=sys.stderr)
        return 1

    failures: list[str] = []
    for name in baselines:
        failures.extend(compare_file(name, args.results, args.baselines))
    for fresh in sorted(args.results.glob("BENCH_*.json")):
        if fresh.name not in baselines:
            print(f"  [note] {fresh.name} has no baseline yet "
                  f"(lock it with --update)")

    if failures:
        print(f"\n{len(failures)} baseline regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(baselines)} bench artifact(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
