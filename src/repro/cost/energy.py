"""Per-access energy tables for the analytical cost model.

The constants model a 28 nm design point in the spirit of Simba scaled from
its 16 nm silicon (the paper scales Simba microarchitecture parameters "to
28 nm", Sec. IV-D).  Energies are per fp16 word unless stated otherwise.

The absolute values matter less than their ratios: the global-buffer-to-MAC
ratio (50:1) determines how strongly operand reuse differentiates the two
dataflow styles, and it is calibrated so that the weight-stationary style
shows the paper's conv-layer energy advantage while attention layers remain
output-stationary-affine (Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EnergyTable:
    """Energy per elementary action, in picojoules."""

    #: one 16-bit multiply-accumulate, including local register traffic
    mac_pj: float = 0.6
    #: one word read/written at the chiplet global buffer
    gb_pj_word: float = 30.0
    #: one word at the dedicated psum accumulation buffer (WS engines)
    accum_pj_word: float = 2.0
    #: one word transferred to/from package DRAM (LPDDR4-class)
    dram_pj_word: float = 160.0
    #: one element processed on the vector/SIMD path
    vector_pj: float = 0.3
    #: NoP ground-referenced signaling energy per *bit* per hop (paper value)
    nop_pj_bit: float = 2.04

    def scaled(self, factor: float) -> "EnergyTable":
        """Return a uniformly technology-scaled copy (for ablations)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return EnergyTable(
            mac_pj=self.mac_pj * factor,
            gb_pj_word=self.gb_pj_word * factor,
            accum_pj_word=self.accum_pj_word * factor,
            dram_pj_word=self.dram_pj_word * factor,
            vector_pj=self.vector_pj * factor,
            nop_pj_bit=self.nop_pj_bit * factor,
        )


#: Default 28 nm-scaled table used by all presets.
ENERGY_28NM = EnergyTable()

PJ_TO_J = 1e-12
