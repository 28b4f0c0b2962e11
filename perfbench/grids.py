"""Seeded inputs: the sweep grid and the design space each workload runs.

Every axis declares a pool of values and how many of them an input takes.
Seed 0 takes the first values of each pool, which are the declared default
grid (192 scenarios) and space (768 candidates).  Any other seed draws the
same number of values from each pool with ``random.Random(seed)``, so the
input keeps its size and its cost structure while every scenario key, and
most plan-cache keys, change.  Values keep their pool order.

The sweep pools vary only axes that change which plans are priced, not
how many: NoP bandwidth and chiplet clock.  The design pools leave the
workload axis fixed, because it sets the frontier size and with it the
number of scenarios the search materializes.
"""

from __future__ import annotations

import random

#: sweep axes as ``(scenario_grid keyword, pool, values taken)``.
SWEEP_POOLS: tuple[tuple[str, tuple, int], ...] = (
    ("workloads", ("default", "lores", "hires", "quad-camera", "six-camera",
                   "shallow-queue", "deep-queue", "full-context"), 8),
    ("npus", (1, 2, 4), 3),
    ("dataflows", (None, "ws"), 2),
    ("topologies", (None, "torus"), 2),
    ("het_ws_budgets", (None, 4), 2),
    ("nop_gbps", (None, 25.0, 50.0, 200.0), 1),
    ("frequencies_ghz", (None, 1.0, 1.5), 1),
)

#: design axes as ``(CLI axis name, token pool, values taken)``.
DESIGN_POOLS: tuple[tuple[str, tuple, int], ...] = (
    ("tolerance", ("1.0", "1.05", "1.1"), 2),
    ("nop_gbps", ("25", "100", "50", "200"), 2),
    ("npus", ("1", "2"), 2),
    ("workload", ("default", "lores", "six-camera"), 3),
    ("dataflow", ("os", "ws"), 2),
    ("frequency_ghz", ("1.0", "2.0", "1.5"), 2),
    ("native_tile", ("16x16", "8x8"), 2),
    ("dram_gbps", ("none", "6", "12"), 2),
    ("topology", ("mesh", "torus"), 2),
)

#: the design search's feasibility target.
DESIGN_PIPE_MS = 200.0


def draw(pools: tuple[tuple[str, tuple, int], ...],
         seed: int) -> dict[str, list]:
    """Pick each axis's values for ``seed`` (seed 0: the first ones)."""
    rng = random.Random(seed)
    picked = {}
    for axis, pool, count in pools:
        if seed == 0:
            chosen = range(count)
        else:
            chosen = sorted(rng.sample(range(len(pool)), count))
        picked[axis] = [pool[i] for i in chosen]
    return picked


def sweep_grid(seed: int) -> list:
    """The sweep workloads' scenario list for ``seed``."""
    from repro.sweep.scenario import scenario_grid
    return scenario_grid(**draw(SWEEP_POOLS, seed))


def design_space(seed: int):
    """The design workload's :class:`~repro.design.DesignSpace`."""
    from repro.design import DesignSpace
    return DesignSpace.from_axis_texts(
        {axis: ",".join(values)
         for axis, values in draw(DESIGN_POOLS, seed).items()})
