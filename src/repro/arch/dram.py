"""Package-level DRAM traffic and bandwidth accounting.

The FSD platform feeds its NPUs from LPDDR4 (~63.5 GB/s in the Tesla FSD,
Sec. II-A).  Per frame, the package must stream:

* the camera inputs (8 x 720p x fp16 words),
* every true filter weight that does not persist in chiplet global
  buffers (activation-producing "weights" of attention matmuls never
  touch DRAM — they are produced on package).

This module aggregates that traffic for a workload, checks it against a
DRAM budget at the target frame rate, and prices its energy.  It closes a
loop the paper leaves implicit: the MCM's aggregate on-package bandwidth
only helps if DRAM does not become the new bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workloads.graph import PerceptionWorkload
from ..workloads.layers import BYTES_PER_WORD
from ..workloads.pipeline import PipelineConfig

#: LPDDR4 on the Tesla FSD (GB/s).
FSD_LPDDR4_BYTES_PER_S = 63.5e9


@dataclass(frozen=True)
class DramBudget:
    """DRAM interface parameters for the package."""

    bandwidth_bytes_per_s: float = FSD_LPDDR4_BYTES_PER_S
    energy_pj_per_word: float = 160.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("DRAM bandwidth must be positive")

    def stream_time_s(self, n_bytes: int | float) -> float:
        """Seconds to stream ``n_bytes`` through the DRAM interface.

        This is the per-frame DRAM service time the scheduler compares
        against the compute pipe latency: when it is larger, DRAM — not
        the chiplets — sets the steady-state frame rate.
        """
        if n_bytes < 0:
            raise ValueError("byte count must be non-negative")
        return n_bytes / self.bandwidth_bytes_per_s

    def stream_energy_j(self, n_bytes: int | float) -> float:
        """DRAM access energy for ``n_bytes`` (word-granular pricing)."""
        if n_bytes < 0:
            raise ValueError("byte count must be non-negative")
        words = n_bytes / BYTES_PER_WORD
        return words * self.energy_pj_per_word * 1e-12


def camera_input_bytes(config: PipelineConfig | None = None) -> int:
    """Raw sensor bytes per frame (all cameras, fp16 RGB)."""
    config = config or PipelineConfig()
    h, w = config.input_hw
    return config.cameras * 3 * h * w * BYTES_PER_WORD


def weight_stream_bytes(workload: PerceptionWorkload) -> int:
    """True filter weights streamed per frame (activations excluded).

    Weights are fetched once per layer per frame; replicated instances
    share the fetch only when they run on the same chiplet, so we count
    the conservative one-fetch-per-instance figure.
    """
    total_words = 0
    for group in workload.all_groups():
        for layer in group.layers:
            if layer.kind.is_compute and not layer.weights_are_activations:
                total_words += layer.weight_words * group.instances
    return total_words * BYTES_PER_WORD


def workload_dram_bytes(workload: PerceptionWorkload,
                        config: PipelineConfig | None = None) -> int:
    """Total per-frame DRAM bytes: streamed weights plus camera inputs.

    The single figure the scheduler needs to turn a :class:`DramBudget`
    into a steady-state throughput bound (see
    :attr:`repro.core.schedule.Schedule.dram_time_s`).
    """
    return weight_stream_bytes(workload) + camera_input_bytes(config)
