"""Journal overhead: a journaled serial sweep against a plain one.

Runs perfbench's seed-0 sweep grid (192 scenarios) serially and cold
(every process-wide memo cleared before each run), in pairs of a run
with no journal and a run that checkpoints into a fresh journal
directory, alternating which runs first.  Prints each pair's times and
``Scenario.build`` counts, then the median journaled/plain time ratio::

    python3 benchmarks/journal_overhead.py

A checkpoint is one atomic file write per outcome, so a journaled run
must build exactly as often as a plain one and stay under
:data:`MAX_RATIO` of its time.  Exits 1 when either fails.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.grids import sweep_grid  # noqa: E402
from repro.core import clear_plan_cache  # noqa: E402
from repro.cost import clear_cache  # noqa: E402
from repro.sweep import Scenario, ScenarioSweep  # noqa: E402

#: plain/journaled pairs per invocation.
PAIRS = 5
#: the median journaled/plain time ratio must stay below this.
MAX_RATIO = 1.5


def timed_run(grid: list, journal: str | None) -> tuple[float, int]:
    """One cold serial sweep: (seconds, Scenario.build calls)."""
    clear_cache()
    clear_plan_cache()
    with mock.patch.object(Scenario, "build", autospec=True,
                           side_effect=Scenario.build) as build:
        start = time.perf_counter()
        ScenarioSweep(list(grid), journal=journal).run()
        return time.perf_counter() - start, build.call_count


def main() -> int:
    grid = sweep_grid(0)
    timed_run(grid, None)  # warm imports and the hop tables
    ratios = []
    builds_match = True
    print(f"{len(grid)} scenarios, serial, cold")
    print("pair  plain_s  journaled_s  ratio  builds (plain/journaled)")
    for pair in range(PAIRS):
        with tempfile.TemporaryDirectory() as journal:
            # Odd pairs run the journaled side first.
            sides = (None, journal) if pair % 2 == 0 else (journal, None)
            runs = {side: timed_run(grid, side) for side in sides}
        plain_s, plain_builds = runs[None]
        journaled_s, journaled_builds = runs[journal]
        ratios.append(journaled_s / plain_s)
        builds_match &= journaled_builds == plain_builds
        print(f"{pair:4d}  {plain_s:7.3f}  {journaled_s:11.3f}  "
              f"{ratios[-1]:5.2f}  {plain_builds}/{journaled_builds}")
    median = statistics.median(ratios)
    print(f"median journaled/plain ratio: {median:.2f} "
          f"(bound {MAX_RATIO})")
    if not builds_match:
        print("FAIL: a journaled run built more often than a plain one")
    ok = builds_match and median < MAX_RATIO
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
