"""Accelerator configuration records and standard presets.

A :class:`AcceleratorConfig` describes one *execution engine*: a Simba-like
256-PE chiplet, or a large monolithic die used by the paper's baselines
(Table II).  Crucially, the engine's *dataflow* carries a fixed native
spatial tile (16x16 = 256 MACs, the Simba chiplet array and the extent
hard-coded in MAESTRO's dataflow descriptions); a die with more PEs does not
map a single layer wider than that tile.  This reproduces the paper's central
finding: monolithic scaling leaves PEs idle, and chiplet-level parallelism
must be created by the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .energy import ENERGY_28NM, EnergyTable

#: Dataflow style identifiers.
OUTPUT_STATIONARY = "os"
WEIGHT_STATIONARY = "ws"
#: Eyeriss-like row stationary — not used by the paper (it restricts the
#: study to OS/WS "given their proven superiority over other accelerator
#: types"); we implement it so that claim can be checked, see
#: ``benchmarks/bench_ablation_dataflows.py``.
ROW_STATIONARY = "rs"

#: Every dataflow style the cost model implements (sweep axis domain).
DATAFLOW_STYLES = (OUTPUT_STATIONARY, WEIGHT_STATIONARY, ROW_STATIONARY)
_STYLES = DATAFLOW_STYLES


@dataclass(frozen=True)
class AcceleratorConfig:
    """A single DNN execution engine.

    Attributes
    ----------
    pe_count:
        Total multiply-accumulate units on the die.
    dataflow:
        ``"os"`` (ShiDianNao-like output stationary) or ``"ws"``
        (NVDLA-like weight stationary).
    native_tile:
        Spatial extent the dataflow maps per layer, as (rows, cols).
        Faithful to the 16x16 Simba chiplet PE array.
    gb_words_per_cycle:
        Global-buffer-to-array bandwidth (words per cycle).
    pe_cache_words:
        Per-PE operand register file capacity; bounds input reuse across the
        output-channel loop for output-stationary engines.
    reduction_drain_cycles:
        Cycles to drain the cross-PE partial-sum accumulation per output
        vector pass (weight-stationary engines only).  Calibrated to 10,
        which reproduces the paper's MAESTRO-reported OS-over-WS latency
        gap (6.85x) to within 0.2% on the full perception workload.
    vector_lanes:
        SIMD lanes for non-MAC ops (softmax, pooling, elementwise).
    gb_bytes:
        Global buffer capacity.
    """

    name: str
    pe_count: int
    dataflow: str = OUTPUT_STATIONARY
    frequency_hz: float = 2.0e9
    native_tile: tuple[int, int] = (16, 16)
    gb_words_per_cycle: int = 32
    pe_cache_words: int = 1024
    reduction_drain_cycles: int = 10
    vector_lanes: int = 16
    gb_bytes: int = 2 * 1024 * 1024
    energy: EnergyTable = ENERGY_28NM

    def __hash__(self) -> int:
        # Accelerator configs ride in every evaluate()/plan-cache key;
        # cache the structural hash (fields mirror the generated __eq__).
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.name, self.pe_count, self.dataflow,
                      self.frequency_hz, self.native_tile,
                      self.gb_words_per_cycle, self.pe_cache_words,
                      self.reduction_drain_cycles, self.vector_lanes,
                      self.gb_bytes, self.energy))
            object.__setattr__(self, "_hash", h)
        return h

    def __post_init__(self) -> None:
        if self.dataflow not in _STYLES:
            raise ValueError(f"unknown dataflow style {self.dataflow!r}")
        if self.pe_count < self.native_pes:
            raise ValueError(
                f"{self.name}: pe_count {self.pe_count} smaller than native "
                f"tile {self.native_tile}")
        if not self.frequency_hz > 0:  # NaN fails too
            raise ValueError("frequency must be positive")
        if self.gb_words_per_cycle <= 0:
            raise ValueError("global buffer bandwidth must be positive")

    @property
    def native_pes(self) -> int:
        return self.native_tile[0] * self.native_tile[1]

    def with_overrides(self,
                       dataflow: str | None = None,
                       frequency_hz: float | None = None,
                       native_tile: tuple[int, int] | None = None,
                       ) -> "AcceleratorConfig":
        """Copy with hardware axes overridden; ``None`` keeps a field.

        The name is kept on purpose: an override changes *parameters* of
        the same engine, and every field participates in equality,
        hashing, and the plan store's content hash — so two configs that
        differ only in frequency (or dataflow: per-quadrant heterogeneous
        packages override it on one quadrant's chiplets) never share a
        plan entry, while an explicit override equal to the default stays
        identical to the unmodified preset (and keeps its cached plans).
        """
        overrides: dict = {}
        if dataflow is not None:
            overrides["dataflow"] = dataflow
        if frequency_hz is not None:
            overrides["frequency_hz"] = frequency_hz
        if native_tile is not None:
            overrides["native_tile"] = tuple(native_tile)
        if not overrides:
            return self
        return replace(self, **overrides)

    @property
    def hw_token(self) -> str:
        """Compact hardware description: ``ws@1.2`` / ``os@2/8x8`` form.

        The dataflow and clock always appear; the native tile only when
        it differs from the 16x16 Simba array.  Used by package
        composition strings (heterogeneous sweep rows and reports).
        """
        token = f"{self.dataflow}@{self.frequency_hz / 1e9:g}"
        if self.native_tile != (16, 16):
            token += f"/{self.native_tile[0]}x{self.native_tile[1]}"
        return token


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

def simba_chiplet(dataflow: str = OUTPUT_STATIONARY,
                  name: str | None = None) -> AcceleratorConfig:
    """One Simba-like 256-PE accelerator chiplet at 2 GHz (Sec. III)."""
    if name is None:
        name = f"simba-chiplet-{dataflow}"
    return AcceleratorConfig(name=name, pe_count=256, dataflow=dataflow)


def shidiannao_chiplet() -> AcceleratorConfig:
    """ShiDianNao-like output-stationary 256-PE chiplet."""
    return simba_chiplet(OUTPUT_STATIONARY, "shidiannao-256")


def nvdla_chiplet() -> AcceleratorConfig:
    """NVDLA-like weight-stationary 256-PE chiplet."""
    return simba_chiplet(WEIGHT_STATIONARY, "nvdla-256")


def eyeriss_chiplet() -> AcceleratorConfig:
    """Eyeriss-like row-stationary 256-PE chiplet (extension)."""
    return simba_chiplet(ROW_STATIONARY, "eyeriss-256")


def monolithic(pe_count: int,
               dataflow: str = OUTPUT_STATIONARY) -> AcceleratorConfig:
    """A single large die with ``pe_count`` PEs (Table II baselines).

    The die keeps the chiplet's native dataflow tile; extra PEs only help
    via engine-level parallelism, which the baseline executors model.
    """
    return AcceleratorConfig(
        name=f"monolithic-{pe_count}-{dataflow}",
        pe_count=pe_count,
        dataflow=dataflow,
        # A bigger die gets a proportionally wider global-buffer port and
        # a proportionally larger buffer; neither rescues a fixed dataflow.
        gb_words_per_cycle=max(32, 32 * pe_count // 256),
        gb_bytes=2 * 1024 * 1024 * max(1, pe_count // 256),
    )
