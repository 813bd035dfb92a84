"""Constant-bit-rate application flows.

Downlink packets originate at a remote server and cross the core network,
a fixed one-way delay (`ScenarioConfig.backhaul_delay_us`), before landing
in the serving eNB's buffer. Uplink packets originate at the vehicle and
count as delivered at the eNB (the same core delay is added to their
reported latency). A run keeps one pending arrival per flow (`Scenario`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .binder import Direction

ALL_VEHICLES = "ALL"


@dataclass(frozen=True)
class FlowSpec:
    name: str
    direction: Direction
    target: str  # vehicle name, or ALL_VEHICLES
    packet_bits: int
    interval_us: int
    start_us: int
    stop_us: int

    def __post_init__(self) -> None:
        if self.packet_bits <= 0:
            raise ValueError(f"flow {self.name}: packet_bits must be positive")
        if self.interval_us <= 0:
            raise ValueError(f"flow {self.name}: interval must be positive")
        if self.start_us < 0:
            raise ValueError(f"flow {self.name}: start must be non-negative")
        if self.start_us > self.stop_us:
            raise ValueError(f"flow {self.name}: start is after stop")


@dataclass(frozen=True)
class Packet:
    flow: str
    seq: int
    vehicle: str
    direction: Direction
    size_bits: int
    created_us: int

    @property
    def packet_id(self) -> str:
        return f"{self.flow}#{self.seq}"


def expand_flows(specs: list[FlowSpec], vehicle_names: list[str]) -> list[FlowSpec]:
    """Expand ALL-target specs into one flow per vehicle (name order)."""
    out: list[FlowSpec] = []
    for spec in specs:
        if spec.target == ALL_VEHICLES:
            for name in sorted(vehicle_names):
                out.append(replace(spec, name=f"{spec.name}.{name}", target=name))
        else:
            out.append(spec)
    return out


def generate_flow_events(spec: FlowSpec, until_us: int) -> range:
    """Arrival times start, start+interval, ... strictly before stop and at most
    `until_us`, the last time a run fires events; a packet's `seq` is its index."""
    if spec.target == ALL_VEHICLES:
        raise ValueError("expand_flows must run before event generation")
    return range(spec.start_us, min(spec.stop_us, until_us + 1), spec.interval_us)
