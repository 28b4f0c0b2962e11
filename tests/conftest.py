"""Shared fixtures: accelerators, workloads, and schedules."""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch import simba_package
from repro.core import match_throughput
from repro.cost import nvdla_chiplet, shidiannao_chiplet
from repro.workloads import build_perception_workload


@pytest.fixture(scope="session")
def os_accel():
    return shidiannao_chiplet()


@pytest.fixture(scope="session")
def ws_accel():
    return nvdla_chiplet()


@pytest.fixture(scope="session")
def workload():
    return build_perception_workload()


@pytest.fixture(scope="session")
def cross_stage_workload():
    """The ``full-context`` variant with OCC_TR also reading S_KV_PROJ's
    output: a dependency that skips a stage, which ``Stage.topo_order``
    allows and no built-in variant has."""
    from repro.sweep import WORKLOAD_VARIANTS
    workload = build_perception_workload(WORKLOAD_VARIANTS["full-context"])
    trunks = workload.stage("TRUNKS")
    trunks.groups = [
        dataclasses.replace(g, depends_on=g.depends_on + ("S_KV_PROJ",))
        if g.name == "OCC_TR" else g for g in trunks.groups]
    return workload


@pytest.fixture(scope="session")
def schedule36():
    return match_throughput(build_perception_workload(), simba_package())


@pytest.fixture(scope="session")
def schedule72():
    return match_throughput(build_perception_workload(),
                            simba_package(npus=2))


@pytest.fixture
def nop_geometry_work(monkeypatch):
    """Counts of the NoP geometry a run looks up and of what it computes:
    stage placements (``place()`` places every stage of its workload, and
    computes those its stage table lacks) and priced NoP edges between
    groups and inside pipelined groups (each schedule looks each one up
    once, and prices those its edge table lacks)."""
    import repro.core.placement as placement
    import repro.core.schedule as schedule
    import repro.core.throughput as throughput
    counts = dict.fromkeys(("stages", "stages_placed", "edges",
                            "edges_priced", "internal",
                            "internal_priced"), 0)
    place, place_stage = throughput.place, placement._place_stage
    edge = schedule.Schedule._edge
    internal = schedule.Schedule._pipeline_internal_edge
    nop_edge = schedule.NoPEdge

    def counting_place(workload, *args, **kwargs):
        counts["stages"] += len(workload.stages)
        return place(workload, *args, **kwargs)

    def counting_place_stage(*args, **kwargs):
        counts["stages_placed"] += 1
        return place_stage(*args, **kwargs)

    def counting_edge(self, src, dst):
        counts["edges"] += 1
        return edge(self, src, dst)

    def counting_internal(self, name):
        found = internal(self, name)
        counts["internal"] += found is not None
        return found

    def counting_nop_edge(src, dst, *args):
        counts["internal_priced" if src == dst else "edges_priced"] += 1
        return nop_edge(src, dst, *args)

    monkeypatch.setattr(throughput, "place", counting_place)
    monkeypatch.setattr(placement, "_place_stage", counting_place_stage)
    monkeypatch.setattr(schedule.Schedule, "_edge", counting_edge)
    monkeypatch.setattr(schedule.Schedule, "_pipeline_internal_edge",
                        counting_internal)
    monkeypatch.setattr(schedule, "NoPEdge", counting_nop_edge)
    return counts
