"""Ablation: Algorithm 1 tolerance coefficient sweep.

The paper's Algorithm 1 takes a tolerance coefficient as input but never
ablates it, so we sweep it.  On this default grid the table shows no
trade-off: every tolerance gets the same allocation, so pipe and
end-to-end latency, EDP, chiplet usage and sharding steps are equal in
every row.  The tolerance moves only the trunk DSE's pipe constraint
(``tolerance x`` the base latency), which a grid reaches only through
its ``het_ws_budget`` axis, and this one leaves it unset.  The sweep is
driven by the :class:`~repro.sweep.ScenarioSweep` engine, so the rows
come with shared plan-cache statistics.
"""

from conftest import save_artifact

from repro.core import clear_plan_cache
from repro.cost import clear_cache
from repro.sim.metrics import format_table
from repro.sweep import ScenarioSweep, scenario_grid

TOLERANCES = (1.0, 1.05, 1.1, 1.2, 1.4)


def _sweep():
    # Cold-start both caches so the benchmark times scheduler work (and
    # the reported stats show real per-sweep hit rates), not warm lookups.
    clear_cache()
    clear_plan_cache()
    result = ScenarioSweep(scenario_grid(tolerances=TOLERANCES)).run()
    rows = [{
        "tolerance": r["tolerance"],
        "pipe_ms": round(r["pipe_ms"], 2),
        "e2e_ms": round(r["e2e_ms"], 1),
        "edp_j_ms": round(r["edp_j_ms"], 1),
        "used_chiplets": r["used_chiplets"],
        "shard_steps": r["shard_steps"],
    } for r in result.rows]
    return rows, result.summary()["plan_cache"]


def test_ablation_tolerance(benchmark, artifact_dir):
    rows, cache = benchmark(_sweep)
    save_artifact(artifact_dir, "ablation_tolerance",
                  format_table(rows, "Ablation: Algorithm 1 tolerance")
                  + f"\nplan cache: {cache}")
    # The pipe latency is FE-bound on 36 chiplets regardless of tolerance.
    pipes = [r["pipe_ms"] for r in rows]
    assert max(pipes) - min(pipes) < 0.2 * min(pipes)
