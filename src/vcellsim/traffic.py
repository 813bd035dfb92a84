"""Constant-bit-rate application flows.

Downlink packets originate at a remote server and cross the core network,
a fixed one-way delay (`ScenarioConfig.backhaul_delay_us`), before landing
in the serving eNB's buffer. Uplink packets originate at the vehicle and
count as delivered at the eNB (the same core delay is added to their
reported latency).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .binder import Direction
from .engine import EventKind, SimEvent

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


def generate_flow_events(spec: FlowSpec, until_us: int) -> list[SimEvent]:
    """PACKET_ARRIVAL events at start, start+interval, ... strictly before stop
    and no later than `until_us`, the last time a run fires events."""
    if spec.target == ALL_VEHICLES:
        raise ValueError("expand_flows must run before event generation")
    events = []
    t = spec.start_us
    seq = 0
    while t < spec.stop_us and t <= until_us:
        packet = Packet(spec.name, seq, spec.target, spec.direction, spec.packet_bits, t)
        events.append(SimEvent(t, EventKind.PACKET_ARRIVAL, packet))
        seq += 1
        t += spec.interval_us
    return events

