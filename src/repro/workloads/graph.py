"""Layer groups, stages, and the group-level dependency graph.

The paper's scheduler (Sec. IV) never reasons about single layers in
isolation: it shards *blocks* — a whole FE+BFPN model, the QKV projection of
a fusion module, an FFN, a trunk — across chiplets.  We mirror that with
:class:`LayerGroup` (a serial chain of layers with optional independent
parallel instances, e.g. 8 cameras) organized into :class:`Stage` objects
(the paper's four perception stages) with group-level dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .layers import Layer, total_macs


@dataclass(frozen=True)
class LayerGroup:
    """A schedulable block: a serial layer chain with parallel instances.

    ``instances`` counts independent copies of the chain that operate on
    different data (cameras for the FE stage and spatial-fusion K/V/FFN,
    temporal frames for T_FUSE).  The scheduler can distribute instances
    across chiplets without any intra-layer surgery; once instances are
    exhausted it falls back to row sharding or pipeline partitioning.
    """

    name: str
    layers: tuple[Layer, ...]
    stage: str
    instances: int = 1
    instance_axis: str = "model"
    depends_on: tuple[str, ...] = ()
    #: whether output-plane row sharding is legal for this group's layers
    row_shardable: bool = True
    #: whether the serial chain may be cut into pipeline segments (deep FE)
    pipeline_splittable: bool = False

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError(f"group {self.name}: empty layer chain")
        if self.instances < 1:
            raise ValueError(f"group {self.name}: instances must be >= 1")

    def __hash__(self) -> int:
        # Groups key the shared plan cache; the structural hash walks the
        # whole layer chain, so cache it per instance (the fields mirror
        # the generated __eq__).
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.name, self.layers, self.stage, self.instances,
                      self.instance_axis, self.depends_on,
                      self.row_shardable, self.pipeline_splittable))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def macs_per_instance(self) -> int:
        return total_macs(self.layers)

    @property
    def total_macs(self) -> int:
        # Every plan and every Schedule.utilization reads it: cache it
        # per instance, like the hash.
        macs = self.__dict__.get("_total_macs")
        if macs is None:
            macs = self.macs_per_instance * self.instances
            object.__setattr__(self, "_total_macs", macs)
        return macs

    @property
    def output_layer(self) -> Layer:
        return self.layers[-1]

    @property
    def output_bytes_per_instance(self) -> int:
        return self.output_layer.output_bytes


@dataclass
class Stage:
    """One of the four perception stages; an ordered set of layer groups."""

    name: str
    groups: list[LayerGroup] = field(default_factory=list)

    def add(self, group: LayerGroup) -> LayerGroup:
        if any(g.name == group.name for g in self.groups):
            raise ValueError(f"duplicate group name {group.name!r}")
        self.groups.append(group)
        return group

    def group(self, name: str) -> LayerGroup:
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(f"no group {name!r} in stage {self.name}")

    @property
    def total_macs(self) -> int:
        return sum(g.total_macs for g in self.groups)

    def topo_order(self) -> list[LayerGroup]:
        """Groups in dependency order (raises on cycles/unknown deps)."""
        by_name = {g.name: g for g in self.groups}
        order: list[LayerGroup] = []
        state: dict[str, int] = {}  # 0 unseen, 1 visiting, 2 done

        def visit(name: str) -> None:
            mark = state.get(name, 0)
            if mark == 2:
                return
            if mark == 1:
                raise ValueError(f"dependency cycle through group {name!r}")
            state[name] = 1
            for dep in by_name[name].depends_on:
                if dep in by_name:  # cross-stage deps resolved by Pipeline
                    visit(dep)
            state[name] = 2
            order.append(by_name[name])

        for g in self.groups:
            visit(g.name)
        return order


@dataclass
class PerceptionWorkload:
    """The full 4-stage perception pipeline as schedulable stages."""

    stages: list[Stage]

    def stage(self, name: str) -> Stage:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(f"no stage {name!r}")

    def all_groups(self) -> list[LayerGroup]:
        return [g for s in self.stages for g in s.groups]

    def all_layers(self) -> list[Layer]:
        return [layer for g in self.all_groups() for layer in g.layers]

    @property
    def total_macs(self) -> int:
        return sum(s.total_macs for s in self.stages)

    def find_group(self, name: str) -> LayerGroup:
        for g in self.all_groups():
            if g.name == name:
                return g
        raise KeyError(f"no group {name!r} in workload")
