"""Scenario wiring and the per-TTI pipeline.

The TTI tick is the heartbeat: each slot runs handover evaluation, CQI
measurement against the previous slot's interference (of each UE and
direction with buffered bits, the only ones a scheduler reads),
scheduling, grid recording (so overlapping cells see each other),
decode of the grants that carry packets, and finally, at the slot boundary,
the handovers RRC decided: the tick flushes each UE's downlink buffer and
switches its serving cell, after which the binder closes the slot. A flow's
one pending arrival keeps its sequence number, so arrivals fire in set-up order.
One `Vehicle` record per trace vehicle holds its set-up facts and stats;
only the binder knows which vehicles are live, and under which node id.

The channel pulls each position it reads from `_position`: a vehicle on
its trajectory at the engine's time, an eNB at its site. A tick reads only
the UEs due an A3 check, the UL-backlogged ones (and, as interference,
other cells' last-slot uplink senders) and the DL-backlogged ones whose
kept DL CQI has lapsed. A budget of b metres, measured at `now`, falls
due at the first TTI t with v_max (t - now) >= b, where v_max is the
vehicle's top speed, or at the next TTI if b <= 0; no due time lies past
the vehicle's departure (`_due_us`).
- A3 check: a UE is due at its first tick after attach, and each check
  sets its next due time from its budget (`Rrc.slack_m`). With handover
  off no UE is ever due.
- DL CQI: each measure keeps the UE's CQI with its serving cell, the
  `last` DL grid's patterns and the due time of its budget
  (`ChannelModel.cqi_budget_m`). A tick before then, with the same cell
  and patterns (compared by value), schedules with the kept CQI, which a
  measure would read again; any other tick measures. The UE's entry goes
  when it leaves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush
from math import ceil
from typing import Iterator, Optional

from .binder import Binder, Direction, NodeKind
from .channel import ChannelModel
from .config import ScenarioConfig
from .engine import TTI_US, Engine, EventKind, SimEvent, us_to_s
from .errors import ConfigError
from .mac import Mac
from .metrics import CellStats, MetricsReport, VehicleStats, write_outputs
from .mobility import Trajectory, apply_accident, lifecycle_events, load_trace, position_at
from .rrc import Rrc
from .traffic import Packet, expand_flows, generate_flow_events

__all__ = ["Scenario", "run_scenario", "write_outputs"]


@dataclass(frozen=True)
class Vehicle:
    """A trace vehicle's set-up facts and its run statistics."""

    traj: Trajectory
    manual_cell: Optional[int]  # None: dynamic association
    tx_power_dbm: float
    stats: VehicleStats


class Scenario:
    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.engine = Engine()
        self.binder = Binder(config.num_rbs)
        self.channel = ChannelModel(
            self.binder, config.channel, config.tables, self._position, self.engine, config.seed
        )
        self.mac = Mac(self.binder)
        self.rrc = Rrc(
            self.binder, self.channel, config.handover, config.association_metric
        )

        self._sites = {enb.name: (enb.x, enb.y) for enb in config.enbs}
        for enb in config.enbs:
            self.binder.register_node(NodeKind.ENB, enb.name, enb.tx_power_dbm)

        self._load_vehicles()
        self._checks: list[tuple[int, int]] = []  # heap of (due us, UE), one per UE
        # per UE, its last measured DL (serving cell, `last` patterns, CQI, due us)
        self._dl_cqis: dict[int, tuple[int, list, int, int]] = {}

        self.log: list[str] = []
        self._cell_stats = {enb.name: CellStats(enb.name) for enb in config.enbs}

        self._schedule_initial_events()

        self.engine.on(EventKind.VEHICLE_ENTER, self._on_enter)
        self.engine.on(EventKind.VEHICLE_LEAVE, self._on_leave)
        self.engine.on(EventKind.PACKET_ARRIVAL, self._on_packet_arrival)
        self.engine.on(EventKind.BACKHAUL_DELIVERY, self._on_backhaul_delivery)
        self.engine.on(EventKind.TTI_TICK, self._on_tick)
        self.engine.on(EventKind.SIM_END, self._on_sim_end)

    # ------------------------------------------------------------------
    # setup

    def _load_vehicles(self) -> None:
        config = self.config
        trajectories = load_trace(config.trace_file)
        roster = sorted(trajectories, key=lambda t: (t.enter_us, t.vehicle_name))
        # the binder looks live nodes up by name, so a vehicle must not share one
        clash = sorted({t.vehicle_name for t in roster} & {enb.name for enb in config.enbs})
        if clash:
            raise ConfigError(f"vehicle {clash[0]!r} has the name of an eNB")
        for i in config.cars:
            if i >= len(roster):
                raise ConfigError(
                    f"car[{i}] is configured but the trace defines only "
                    f"{len(roster)} vehicles"
                )

        self.vehicles: dict[str, Vehicle] = {}
        for i, traj in enumerate(roster):
            car = config.cars.get(i, config.default_car)
            if car.accident is not None:
                traj = apply_accident(traj, car.accident)
            name = traj.vehicle_name
            if config.dynamic_cell_association:
                manual_cell = None
            elif car.master_id is not None:
                manual_cell = self.binder.cells[car.master_id]
            else:
                raise ConfigError(
                    f"car[{i}] ({name}) has no master_id and "
                    f"dynamic_cell_association is false"
                )
            stats = VehicleStats(name, traj.enter_us, traj.leave_us)
            self.vehicles[name] = Vehicle(traj, manual_cell, car.tx_power_dbm, stats)

    def _schedule_initial_events(self) -> None:
        config = self.config
        for event in lifecycle_events(v.traj for v in self.vehicles.values()):
            if event.fire_time <= config.sim_end_us:
                self.engine.schedule(event)
        self._arrivals: dict[str, Iterator[int]] = {}  # a flow's times after the pending one
        for flow in expand_flows(list(config.flows), list(self.vehicles)):
            if flow.target not in self.vehicles:
                raise ConfigError(f"flow {flow.name} targets unknown vehicle {flow.target!r}")
            times = generate_flow_events(flow, config.sim_end_us)
            self._arrivals[flow.name] = iter(times[1:])
            for t in times[:1]:  # the first arrival; each arrival schedules the next
                packet = Packet(flow.name, 0, flow.target, flow.direction, flow.packet_bits, t)
                self.engine.schedule(SimEvent(t, EventKind.PACKET_ARRIVAL, packet))
        self.engine.schedule_at(config.sim_end_us, EventKind.SIM_END)
        # the first tick goes in last so same-time ENTER/arrival events precede it
        if config.sim_end_us > 0:
            self.engine.schedule_at(0, EventKind.TTI_TICK, 0)

    def _position(self, node_id: int) -> tuple[float, float]:
        """Where the node is now: a vehicle on its trajectory, an eNB at its site."""
        name = self.binder.nodes[node_id].name
        vehicle = self.vehicles.get(name)
        return self._sites[name] if vehicle is None else position_at(vehicle.traj, self.engine.now)

    def _logline(self, text: str) -> None:
        self.log.append(f"{us_to_s(self.engine.now):.6f} {text}")

    # ------------------------------------------------------------------
    # event handlers

    def _on_enter(self, event: SimEvent) -> None:
        name = event.payload
        vehicle = self.vehicles[name]
        rec = self.binder.register_node(NodeKind.UE, name, vehicle.tx_power_dbm)
        cell = self.rrc.initial_association(rec.node_id, vehicle.manual_cell)
        if self.rrc.can_hand_over:
            heappush(self._checks, (self.engine.now, rec.node_id))
        cell_name = self.binder.node(cell).name
        vehicle.stats.timeline.append((self.engine.now, cell_name))
        self._logline(f"ENTER {name}")
        self._logline(f"ATTACH {name} cell={cell_name}")

    def _on_leave(self, event: SimEvent) -> None:
        name = event.payload
        node = self.binder.live_id(name)
        residual = self.mac.clear_node(node)
        self.vehicles[name].stats.residual_bits += residual
        self.rrc.forget(node)
        self.channel.forget(node)
        self._dl_cqis.pop(node, None)
        self.binder.deregister_node(node)
        self._logline(f"LEAVE {name} residual_bits={residual}")

    def _on_packet_arrival(self, event: SimEvent) -> None:
        packet: Packet = event.payload
        t = next(self._arrivals[packet.flow], None)
        if t is not None:  # the same event, so the flow keeps its sequence number
            event.fire_time, event.payload = t, Packet(
                packet.flow, packet.seq + 1, packet.vehicle, packet.direction, packet.size_bits, t
            )
            self.engine.schedule(event)
        stats = self.vehicles[packet.vehicle].stats
        stats.offered_bits += packet.size_bits
        if packet.direction == Direction.DL and self.binder.live_id(packet.vehicle) is not None:
            delivery_us = self.engine.now + self.config.backhaul_delay_us
            self.engine.schedule_at(delivery_us, EventKind.BACKHAUL_DELIVERY, packet)
            stats.backhaul_inflight_bits += packet.size_bits
        else:
            self._to_buffer(packet, stats)

    def _on_backhaul_delivery(self, event: SimEvent) -> None:
        packet: Packet = event.payload
        stats = self.vehicles[packet.vehicle].stats
        stats.backhaul_inflight_bits -= packet.size_bits
        self._to_buffer(packet, stats)

    def _to_buffer(self, packet: Packet, stats: VehicleStats) -> None:
        """Enqueue at the vehicle's buffer: core-lost if it is gone, radio-dropped if full."""
        node = self.binder.live_id(packet.vehicle)
        if node is None:
            stats.lost_core_bits += packet.size_bits
        elif not self.mac.enqueue(node, packet):
            stats.dropped_radio_bits += packet.size_bits

    def _on_sim_end(self, event: SimEvent) -> None:
        self._logline("SIM_END")

    def _due_checks(self, now: int) -> list[int]:
        """Pop the live UEs whose A3 check is due by `now`, in ascending id."""
        checks, due = self._checks, []
        while checks and checks[0][0] <= now:
            ue = heappop(checks)[1]
            if self.binder.is_live(ue):
                due.append(ue)
        due.sort()
        return due

    def _due_us(self, ue: int, now: int, budget_m: float) -> int:
        """The first TTI at which the UE, at its top speed, may have moved
        `budget_m` metres since `now` (the next TTI if the budget is not
        positive), or its departure if that comes first."""
        traj = self.vehicles[self.binder.node(ue).name].traj
        due = now + TTI_US
        if budget_m > 0.0:
            # TTIs until it may have moved `budget_m` metres, or until it leaves
            ticks = (traj.leave_us - now) / TTI_US
            metres_per_tti = traj.top_speed * TTI_US
            if budget_m < metres_per_tti * ticks:
                ticks = budget_m / metres_per_tti
            due = now + ceil(ticks) * TTI_US
        return min(due, traj.leave_us)

    def _queue_check(self, ue: int, now: int) -> None:
        """Queue the UE's next A3 check, just checked at `now`."""
        heappush(self._checks, (self._due_us(ue, now, self.rrc.slack_m(ue)), ue))

    def _dl_cqi(self, ue: int, cell: int, now: int) -> int:
        """The UE's DL CQI: the one kept from its last measure while it cannot
        have changed (same serving cell and `last` patterns, and not yet due),
        else measured afresh and kept."""
        patterns = self.channel.last_index(Direction.DL).patterns
        kept = self._dl_cqis.get(ue)
        if kept is not None and now < kept[3] and kept[0] == cell and kept[1] == patterns:
            return kept[2]
        report = self.channel.measure(ue, cell, Direction.DL)
        due = self._due_us(ue, now, self.channel.cqi_budget_m(report))
        self._dl_cqis[ue] = (cell, patterns, report.cqi, due)
        return report.cqi

    def _on_tick(self, event: SimEvent) -> None:
        now = self.engine.now
        nodes = self.binder.nodes
        # enter and leave are separate events, so the live set is fixed for the tick
        checks = self._due_checks(now)
        handovers = []  # (UE record, target cell)
        for ue in checks:
            target = self.rrc.handover_check(ue, now)
            if target is not None:
                handovers.append((nodes[ue], target))
            self._queue_check(ue, now)

        # the schedulers read only backlogged UEs, so only those are measured
        candidates: dict[tuple[int, Direction], list[tuple[int, int]]] = {}
        for direction, backlog in self.mac.backlogged.items():
            for ue in sorted(backlog):
                cell = nodes[ue].serving_cell
                if direction is Direction.DL:
                    cqi = self._dl_cqi(ue, cell, now)
                else:  # UL interferers are UEs, which move
                    cqi = self.channel.measure(ue, cell, direction).cqi
                candidates.setdefault((cell, direction), []).append((ue, cqi))

        schedule = (
            self.mac.schedule_tti_rr
            if self.config.scheduler == "rr"
            else self.mac.schedule_tti_maxcqi
        )
        allocations = []
        for cell in self.binder.cells:
            for direction in (Direction.DL, Direction.UL):
                ues = candidates.get((cell, direction))
                if ues is None:
                    continue
                alloc = schedule(cell, direction, ues, self.channel.tables)
                if not alloc.grants:
                    continue
                for ue in sorted(alloc.grants):
                    transmitter = cell if direction == Direction.DL else ue
                    self.binder.record_allocation(
                        direction, cell, alloc.grants[ue].rb_set, transmitter
                    )
                cell_stats = self._cell_stats[self.binder.node(cell).name]
                cell_stats.rb_allocated[direction] += alloc.rb_count()
                allocations.append(alloc)

        # delivered at the end of the slot; UL then still crosses the core
        deliver_us = now + TTI_US
        ul_deliver_us = deliver_us + self.config.backhaul_delay_us
        for alloc in allocations:
            outcome = self.mac.transmit(alloc, self.channel)
            done_us = deliver_us if alloc.direction == Direction.DL else ul_deliver_us
            for ue, result in outcome.grant_outcomes.items():
                if not (result.delivered or result.dropped_bits):
                    continue  # a grant that carried nothing changes no stats
                stats = self.vehicles[self.binder.node(ue).name].stats
                for pkt in result.delivered:
                    stats.record_delivery(pkt.size_bits, done_us - pkt.created_us)
                stats.dropped_radio_bits += result.dropped_bits

        for rec, target in handovers:
            source_name = self.binder.node(rec.serving_cell).name  # before the switch
            stats = self.vehicles[rec.name].stats
            # a UE cannot leave within a TTI and cells never leave: both ends are live
            stats.dropped_handover_bits += self.mac.clear(rec.node_id, Direction.DL)
            self.binder.set_serving_cell(rec.node_id, target)
            target_name = self.binder.node(target).name
            stats.timeline.append((now, target_name))
            self._logline(f"HANDOVER {rec.name} {source_name}->{target_name}")

        self.binder.end_tti()
        next_tick = now + TTI_US
        if next_tick < self.config.sim_end_us:
            self.engine.schedule_at(next_tick, EventKind.TTI_TICK, next_tick // TTI_US)

    # ------------------------------------------------------------------
    # run

    def run(self) -> MetricsReport:
        started = time.perf_counter()
        summary = self.engine.run_until(self.config.sim_end_us)
        wall_ms = round((time.perf_counter() - started) * 1000)

        vehicles = {name: v.stats for name, v in self.vehicles.items()}
        for rec in self.binder.live_nodes(NodeKind.UE):
            vehicles[rec.name].residual_bits += self.mac.clear_node(rec.node_id)
        for stats in vehicles.values():
            stats.residual_bits += stats.backhaul_inflight_bits
            stats.backhaul_inflight_bits = 0

        report = MetricsReport(
            seed=self.config.seed,
            sim_end_us=self.config.sim_end_us,
            events_processed=summary.total,
            wall_ms=wall_ms,
            rb_capacity=self.config.num_rbs * summary.counts.get(EventKind.TTI_TICK, 0),
            vehicles=vehicles,
            cells=self._cell_stats,
            event_log=self.log,
        )
        report.verify_conservation()
        return report


def run_scenario(config: ScenarioConfig) -> MetricsReport:
    return Scenario(config).run()
