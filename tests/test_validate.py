"""Tests for workload structural validation (``oracles.py``)."""

import pytest
from oracles import (
    ERROR,
    WARNING,
    Diagnostic,
    WorkloadValidationError,
    check_workload,
    validate_workload,
)

from repro.workloads import conv, dense
from repro.workloads.graph import LayerGroup, PerceptionWorkload, Stage


def _workload(groups, stage_name="S"):
    stage = Stage(stage_name)
    for g in groups:
        stage.add(g)
    return PerceptionWorkload(stages=[stage])


class TestValidation:
    def test_default_pipeline_has_no_errors(self, workload):
        errors = [d for d in validate_workload(workload)
                  if d.severity == ERROR]
        assert errors == []
        check_workload(workload)  # must not raise

    def test_unknown_dependency_flagged(self):
        wl = _workload([LayerGroup(
            name="g", layers=(conv("c", (8, 8), 16, 16),), stage="S",
            depends_on=("ghost",))])
        findings = validate_workload(wl)
        assert any(d.severity == ERROR and "ghost" in d.message
                   for d in findings)
        with pytest.raises(WorkloadValidationError):
            check_workload(wl)

    def test_channel_discontinuity_warned(self):
        wl = _workload([LayerGroup(
            name="g",
            layers=(conv("a", (8, 8), 32, 16), conv("b", (8, 8), 64, 99)),
            stage="S")])
        findings = validate_workload(wl)
        assert any(d.severity == WARNING and "reduction width" in d.message
                   for d in findings)

    def test_attention_matmuls_do_not_trip_channel_check(self, workload):
        # The real fusion stages interleave matmuls/softmax with linears;
        # none of that is a channel error.
        warnings = [d for d in validate_workload(workload)
                    if "S_ATTN" in d.location or "T_ATTN" in d.location]
        assert warnings == []

    def test_degenerate_pipeline_split_is_error(self):
        wl = _workload([LayerGroup(
            name="g", layers=(conv("c", (8, 8), 16, 16),), stage="S",
            pipeline_splittable=True)])
        with pytest.raises(WorkloadValidationError):
            check_workload(wl)

    def test_single_row_shardable_warned(self):
        wl = _workload([LayerGroup(
            name="g", layers=(dense("d", (1, 1), 16, 16),), stage="S",
            row_shardable=True)])
        findings = validate_workload(wl)
        assert any("row-shardable" in d.message for d in findings)

    def test_too_many_stages_rejected(self):
        stages = []
        for i in range(5):
            s = Stage(f"S{i}")
            s.add(LayerGroup(name=f"g{i}",
                             layers=(conv("c", (8, 8), 16, 16),),
                             stage=f"S{i}"))
            stages.append(s)
        wl = PerceptionWorkload(stages=stages)
        with pytest.raises(WorkloadValidationError):
            check_workload(wl)

    def test_diagnostic_str(self):
        d = Diagnostic(ERROR, "loc", "boom")
        assert str(d) == "[error] loc: boom"
