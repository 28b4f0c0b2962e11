"""Design-space exploration for the trunks stage (paper Sec. IV-C).

The trunk quadrant hosts three diverse models (occupancy, lane prediction,
detection) on 9 chiplets.  The paper brute-forces the mapping and considers
heterogeneous integration: Het(2) and Het(4) embed 2 or 4 weight-stationary
(NVDLA-like) chiplets among the output-stationary ones, scoring

``score(config) = -EDP   if no chiplet violates the pipe constraint L_cstr``
``score(config) = -inf   otherwise``

We enumerate all chiplet partitions across the three trunk models and all
model-to-dataflow assignments compatible with the WS chiplet budget, pricing
every candidate with the cost model.  The search reproduces the paper's
finding that the WS chiplets gravitate to the detection trunk (conv-heavy,
weight-stationary-affine) and buy energy/EDP reductions at unchanged E2E.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, TypeVar

from ..cost import AcceleratorConfig, nvdla_chiplet, shidiannao_chiplet
from ..workloads.graph import Stage
from ..workloads.trunks import build_trunks
from .sharding import GroupPlan, plan_group

_T = TypeVar("_T")


def best_ranked(
        candidates: Iterable[tuple[tuple | None, _T]],
) -> tuple[tuple | None, _T | None]:
    """First-seen minimum over ``(rank, payload)`` candidates.

    The rank-then-materialize selection loop shared by the trunk DSE and
    the package-design search (:mod:`repro.design`): candidates with a
    ``None`` rank are unpriceable and skipped, ties keep the *first*
    candidate seen (strict ``<``), and only the winning payload — never a
    fully-evaluated object per candidate — flows back to the caller.
    Returns ``(None, None)`` when nothing ranked.
    """
    best_rank: tuple | None = None
    best_payload: _T | None = None
    for rank, payload in candidates:
        if rank is None:
            continue
        if best_rank is None or rank < best_rank:
            best_rank = rank
            best_payload = payload
    return best_rank, best_payload


@dataclass(frozen=True)
class TrunkConfig:
    """One candidate mapping of the trunk models onto the quadrant."""

    label: str
    ws_chiplets: int
    #: model name -> (chiplet count, dataflow style)
    alloc: dict
    e2e_ms: float
    pipe_ms: float
    energy_j: float
    edp_j_ms: float
    model_energy_j: dict
    model_pipe_ms: dict
    feasible: bool

    @property
    def score(self) -> float:
        return -self.edp_j_ms if self.feasible else float("-inf")


class TrunkDSE:
    """Brute-force trunk mapping search with heterogeneous options."""

    def __init__(self,
                 stage: Stage | None = None,
                 os_accel: AcceleratorConfig | None = None,
                 ws_accel: AcceleratorConfig | None = None,
                 l_cstr_s: float = 0.0937,
                 chiplets: int = 9,
                 allow_sharding: bool = False):
        self.stage = stage or build_trunks()
        self.os_accel = os_accel or shidiannao_chiplet()
        self.ws_accel = ws_accel or nvdla_chiplet()
        self.l_cstr_s = l_cstr_s
        self.chiplets = chiplets
        #: the paper maps trunk models whole (Fig. 8): a model's chiplet
        #: count is bounded by its independent instances.  Set
        #: ``allow_sharding=True`` for the free-form ablation.
        self.allow_sharding = allow_sharding
        #: name-keyed view over the process-wide PlanCache: structural
        #: (group, n, accel) hashing happens once per distinct key here,
        #: the brute-force loops below then pay only a string-tuple lookup.
        self._plan_view: dict[tuple[str, int, str], GroupPlan | None] = {}

    # ------------------------------------------------------------------

    def _plan(self, group_name: str, n: int, style: str) -> GroupPlan | None:
        # plan_group memoizes through the process-wide PlanCache, so
        # identical (group, n, accel) candidates are priced once across
        # all TrunkDSE instances and sweep scenarios in this process.
        key = (group_name, n, style)
        if key not in self._plan_view:
            group = self.stage.group(group_name)
            accel = self.os_accel if style == "os" else self.ws_accel
            self._plan_view[key] = plan_group(group, n, accel)
        return self._plan_view[key]

    def _partitions(self):
        """All chiplet count assignments (each model >= 1, total <= budget)."""
        groups = list(self.stage.groups)
        caps = []
        for g in groups:
            cap = self.chiplets - (len(groups) - 1)
            if not self.allow_sharding:
                cap = min(cap, g.instances)
            caps.append(cap)
        for counts in itertools.product(
                *(range(1, cap + 1) for cap in caps)):
            if sum(counts) <= self.chiplets:
                yield dict(zip((g.name for g in groups), counts))

    def _styles(self, counts: dict, ws_budget: int):
        """Model-to-dataflow assignments honouring the WS chiplet budget.

        Models assigned WS must fit on the ``ws_budget`` WS chiplets and the
        remaining models on the OS chiplets; WS chiplets may idle (the
        search decides how much of the heterogeneous capacity is useful).
        """
        names = list(counts)
        os_budget = self.chiplets - ws_budget
        for ws_set in itertools.chain.from_iterable(
                itertools.combinations(names, r)
                for r in range(len(names) + 1)):
            ws_used = sum(counts[m] for m in ws_set)
            os_used = sum(counts[m] for m in names if m not in ws_set)
            if ws_used <= ws_budget and os_used <= os_budget:
                yield {m: ("ws" if m in ws_set else "os") for m in names}

    def _evaluate(self, counts: dict, styles: dict,
                  label: str, ws_budget: int) -> TrunkConfig | None:
        plans: dict[str, GroupPlan] = {}
        for name, n in counts.items():
            plan = self._plan(name, n, styles[name])
            if plan is None:
                return None
            plans[name] = plan
        pipe = max(p.pipe_latency_s for p in plans.values())
        e2e = max(p.span_s for p in plans.values())
        # A left fold, as in _rank: sum() of floats is compensated from
        # Python 3.12 on.
        energy = 0.0
        for p in plans.values():
            energy += p.energy_j
        # The paper's Table I computes the trunk EDP against the stage's
        # end-to-end latency (0.185 J x 91.2 ms = 16.9 for the OS column).
        return TrunkConfig(
            label=label,
            ws_chiplets=ws_budget,
            alloc={m: (counts[m], styles[m]) for m in counts},
            e2e_ms=e2e * 1e3,
            pipe_ms=pipe * 1e3,
            energy_j=energy,
            edp_j_ms=energy * e2e * 1e3,
            model_energy_j={m: plans[m].energy_j for m in plans},
            model_pipe_ms={m: plans[m].pipe_latency_s * 1e3 for m in plans},
            feasible=pipe <= self.l_cstr_s,
        )

    def _rank(self, counts: dict, styles: dict) -> tuple | None:
        """Cheap ranking key for one candidate (no TrunkConfig built).

        Feasible candidates rank as ``(0, edp_j_ms, pipe_ms)``, infeasible
        as ``(1, pipe_ms)`` — the same ordering (including first-seen tie
        breaking via strict comparison) the full-object search used, at a
        fraction of the per-candidate cost.  This loop is where ``table()``
        spends its time, so candidates are scored with plain arithmetic
        and only the winner is materialized.
        """
        pipe = 0.0
        e2e = 0.0
        energy = 0.0
        for name, n in counts.items():
            plan = self._plan(name, n, styles[name])
            if plan is None:
                return None
            if plan.pipe_latency_s > pipe:
                pipe = plan.pipe_latency_s
            if plan.span_s > e2e:
                e2e = plan.span_s
            energy += plan.energy_j
        if pipe <= self.l_cstr_s:
            return (0, energy * e2e * 1e3, pipe * 1e3)
        return (1, pipe * 1e3)

    def search(self, ws_budget: int, label: str | None = None) -> TrunkConfig:
        """Best configuration for a given WS chiplet count.

        Feasible configurations are ranked by EDP; when none meets the
        constraint (the paper's WS-only column), the minimum-pipe-latency
        configuration is reported instead.
        """
        if not 0 <= ws_budget <= self.chiplets:
            raise ValueError("ws_budget out of range")
        label = label or (f"Het({ws_budget})" if 0 < ws_budget < self.chiplets
                          else ("WS" if ws_budget else "OS"))
        _, best_cand = best_ranked(
            (self._rank(counts, styles), (counts, styles))
            for counts in self._partitions()
            for styles in self._styles(counts, ws_budget))
        if best_cand is None:
            raise RuntimeError("trunk DSE found no valid configuration")
        best = self._evaluate(*best_cand, label, ws_budget)
        assert best is not None  # its plans were all priceable in _rank
        return best

    def table(self, het_budgets: tuple[int, ...] = (2, 4)) -> list[TrunkConfig]:
        """The paper's Table I: OS, WS, then heterogeneous columns."""
        results = [self.search(0, "OS"), self.search(self.chiplets, "WS")]
        for k in het_budgets:
            results.append(self.search(k))
        return results
