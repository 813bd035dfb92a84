"""Independent reference computations used to pin expected test values."""

import math
import random
from bisect import bisect_right

from vcellsim.binder import Binder, Direction, NodeKind
from vcellsim.channel import ChannelModel, ChannelParams, CqiTables, bits_per_rb
from vcellsim.engine import Engine, EventKind, SimEvent
from vcellsim.mobility import lifecycle_events
from vcellsim.rrc import HandoverState
from vcellsim.traffic import Packet, expand_flows


def allocation_items(grid):
    """Every allocated (cell, rb, transmitter) entry of one direction's grid,
    cell -> [transmitter on each RB, 0 if free], such as
    `binder.current[Direction.DL]`."""
    for cell, row in grid.items():
        for rb, tx in enumerate(row):
            if tx:
                yield (cell, rb, tx)


def co_channel_transmitters(grid, rb: int, excluding_cell: int) -> list[int]:
    """Sorted ids of the transmitters on `rb` in cells other than `excluding_cell`."""
    return sorted(
        tx for cell, grid_rb, tx in allocation_items(grid)
        if grid_rb == rb and cell != excluding_cell
    )


class Positions:
    """A dict-backed position provider for a `ChannelModel`, and its clock.

    `place` puts a node at (x, y) and moves `now` on by 1 us, since the
    channel keeps what it reads until the time moves on; `register` also
    registers the node. Pass the same object as `where` and `clock`.
    """

    def __init__(self):
        self.now = 0
        self.at = {}

    def __call__(self, node_id):
        return self.at[node_id]

    def place(self, node_id, xy):
        self.at[node_id] = xy
        self.now += 1

    def register(self, binder, kind, name, tx_power_dbm, xy=(0.0, 0.0)):
        rec = binder.register_node(kind, name, tx_power_dbm)
        self.place(rec.node_id, xy)
        return rec


def live_ids(binder: Binder) -> set[int]:
    return {rec.node_id for rec in binder.live_nodes()}


def reference_position(samples, t_us: int) -> tuple[float, float]:
    """Position at `t_us` over a raw (t_us, x, y) sample table, by linear scan.

    Finds the bracketing pair from the start of the table every time, then
    interpolates; an exact sample time returns that sample.
    """
    for (t0, x0, y0), (t1, x1, y1) in zip(samples, samples[1:]):
        if t0 <= t_us <= t1:
            if t_us == t0:
                return (x0, y0)
            if t_us == t1:
                return (x1, y1)
            frac = (t_us - t0) / (t1 - t0)
            return (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))
    raise AssertionError(f"{t_us} outside the table")


def reference_path_loss_db(distance_m: float, params: ChannelParams) -> float:
    d = max(distance_m, params.min_distance_m)
    return params.pathloss_a_db + params.pathloss_b_db * math.log10(d / 1000.0)


def reference_noise_dbm(params: ChannelParams) -> float:
    return -174.0 + 10.0 * math.log10(params.rb_bandwidth_hz) + params.noise_figure_db


def reference_distance_m(where, node_a: int, node_b: int) -> float:
    """Straight-line distance between two nodes where the provider puts them."""
    (xa, ya), (xb, yb) = where(node_a), where(node_b)
    return math.hypot(xa - xb, ya - yb)


def reference_rx_mw(where, tx_rec, rx_rec, params: ChannelParams) -> float:
    d = reference_distance_m(where, tx_rec.node_id, rx_rec.node_id)
    return 10.0 ** ((tx_rec.tx_power_dbm - reference_path_loss_db(d, params)) / 10.0)


def brute_force_sinr_db(
    binder: Binder,
    params: ChannelParams,
    where,
    ue: int,
    serving: int,
    grid,
    direction: Direction,
    rb: int,
) -> float:
    """SINR on one RB by direct summation over one direction's whole grid,
    with positions from the provider `where`."""
    ue_rec = binder.node(ue)
    cell_rec = binder.node(serving)
    tx, rx = (cell_rec, ue_rec) if direction == Direction.DL else (ue_rec, cell_rec)
    signal = reference_rx_mw(where, tx, rx, params)
    noise = 10.0 ** (reference_noise_dbm(params) / 10.0)
    interference = sum(
        reference_rx_mw(where, binder.node(other_tx), rx, params)
        for cell, grid_rb, other_tx in allocation_items(grid)
        if grid_rb == rb and cell != serving
    )
    return 10.0 * math.log10(signal / (noise + interference))


def brute_force_mean_sinr(
    binder: Binder, params: ChannelParams, where, ue: int, serving: int, direction: Direction
) -> float:
    """Linear mean SINR over every RB of the `last` grid, one brute-force RB at a time."""
    grid = binder.last[direction]
    per_rb = [
        brute_force_sinr_db(binder, params, where, ue, serving, grid, direction, rb)
        for rb in range(binder.num_rbs)
    ]
    return sum(10.0 ** (v / 10.0) for v in per_rb) / binder.num_rbs


def per_rb_pair_walk(ue: int, serving: int, direction: Direction, grid, rbs):
    """The (tx, rx) node pairs a per-RB SINR walk evaluates, in its order.

    First the serving link, then for each RB of `rbs` in turn every occupant
    of another cell, in the grid's cell order. `grid` is one direction's
    cell -> [transmitter on each RB, 0 if free].
    """
    tx, rx = (serving, ue) if direction == Direction.DL else (ue, serving)
    yield (tx, rx)
    for rb in rbs:
        for cell, row in grid.items():
            if row[rb] and cell != serving:
                yield (row[rb], rx)


def record_random_grants(binder: Binder, rng: random.Random, ues, cells) -> list:
    """Random disjoint grants of up to 4 RBs for the UEs of `cells`, both
    directions, recorded in the `current` grid.

    `ues` holds (ue, serving_cell) records. Returns the grants as
    (ue, serving_cell, direction, rb tuple) records.
    """
    grants = []
    for cell in cells:
        members = [ue for ue, serving in ues if serving == cell]
        for direction in (Direction.DL, Direction.UL):
            free = list(range(binder.num_rbs))
            rng.shuffle(free)
            for ue in members:
                take = rng.randint(0, min(4, len(free)))
                rbs, free = sorted(free[:take]), free[take:]
                if not rbs:
                    continue
                transmitter = cell if direction == Direction.DL else ue
                binder.record_allocation(direction, cell, rbs, transmitter)
                grants.append((ue, cell, direction, tuple(rbs)))
    return grants


def random_allocated_scenario(rng: random.Random, num_rbs: int = 12, max_cells: int = 3, max_ues: int = 10):
    """A small populated grid: random cells, attached UEs, random grants.

    Returns (binder, channel, grants) with grants as
    (ue, serving_cell, direction, rb tuple) records in the `current` grid.
    """
    params = ChannelParams()
    binder = Binder(num_rbs=num_rbs)
    positions = Positions()
    n_cells = rng.randint(1, max_cells)
    cells = [
        positions.register(
            binder,
            NodeKind.ENB,
            f"enb{i}",
            rng.uniform(40.0, 46.0),
            (rng.uniform(0.0, 3000.0), rng.uniform(0.0, 3000.0)),
        ).node_id
        for i in range(n_cells)
    ]
    ues = []
    for j in range(rng.randint(1, max_ues)):
        rec = positions.register(
            binder,
            NodeKind.UE,
            f"ue{j}",
            rng.uniform(20.0, 26.0),
            (rng.uniform(0.0, 3000.0), rng.uniform(0.0, 3000.0)),
        )
        serving = rng.choice(cells)
        binder.set_serving_cell(rec.node_id, serving)
        ues.append((rec.node_id, serving))
    grants = record_random_grants(binder, rng, ues, cells)
    channel = ChannelModel(binder, params, CqiTables(), positions, positions)
    return binder, channel, grants


def _reference_backlogged(ues_with_cqi, buffer_bits, tables):
    """(ue, cqi, RB demand) of every UE with CQI >= 1 and a non-empty buffer,
    in ascending id; `buffer_bits` maps ue -> buffered bits."""
    return [
        (ue, cqi, math.ceil(buffer_bits.get(ue, 0) / bits_per_rb(cqi, tables)))
        for ue, cqi in sorted(ues_with_cqi)
        if cqi >= 1 and buffer_bits.get(ue, 0) > 0
    ]


def reference_rr(ues_with_cqi, buffer_bits, num_rbs, pointer, tables):
    """Round robin by pointer walk: for every RB, scan the rotation from a
    cursor for the next UE still short of its demand.

    The rotation starts after `pointer` (the UE that took the last RB of the
    previous TTI, or None). Returns ({ue: (rb tuple, cqi)}, new pointer).
    """
    backlogged = _reference_backlogged(ues_with_cqi, buffer_bits, tables)
    if not backlogged:
        return {}, pointer
    ids = [ue for ue, _, _ in backlogged]
    cqis = {ue: cqi for ue, cqi, _ in backlogged}
    demand = {ue: need for ue, _, need in backlogged}
    start = bisect_right(ids, pointer) % len(ids) if pointer is not None else 0
    order = ids[start:] + ids[:start]
    granted = {ue: [] for ue in ids}
    cursor = 0
    last_served = None
    k = len(order)
    for rb in range(num_rbs):
        for step in range(k):
            ue = order[(cursor + step) % k]
            if len(granted[ue]) < demand[ue]:
                granted[ue].append(rb)
                last_served = ue
                cursor = (cursor + step + 1) % k
                break
        else:
            break  # every demand met
    grants = {ue: (tuple(rbs), cqis[ue]) for ue, rbs in granted.items() if rbs}
    return grants, last_served if last_served is not None else pointer


def reference_maxcqi(ues_with_cqi, buffer_bits, num_rbs, tables):
    """Max-CQI greedy fill: contiguous RBs by descending CQI, ties to the
    lowest id, each UE up to its demand. Returns {ue: (rb tuple, cqi)}."""
    backlogged = _reference_backlogged(ues_with_cqi, buffer_bits, tables)
    grants = {}
    rb_cursor = 0
    for ue, cqi, want in sorted(backlogged, key=lambda item: (-item[1], item[0])):
        if rb_cursor >= num_rbs:
            break
        take = min(want, num_rbs - rb_cursor)
        if take > 0:
            grants[ue] = (tuple(range(rb_cursor, rb_cursor + take)), cqi)
            rb_cursor += take
    return grants


# ----------------------------------------------------------------------
# reference mode: a scenario with its skips patched out


class MeasureEveryone:
    """A scenario's MAC that shows the tick every live UE as backlogged in
    both directions, so every UE is read and measured in both; the MAC's
    own scheduling still reads the real buffers. Every grant's SINR is
    taken, and discarded, also for the grants that carry nothing, whose
    SINR the MAC skips."""

    def __init__(self, mac):
        self._mac = mac

    def __getattr__(self, name):
        return getattr(self._mac, name)

    @property
    def backlogged(self):
        live = {rec.node_id for rec in self._mac.binder.live_nodes(NodeKind.UE)}
        return {Direction.DL: live, Direction.UL: live}

    def transmit(self, allocation, channel):
        for ue, grant in allocation.grants.items():
            channel.sinr(ue, allocation.cell, allocation.direction, grant.rb_set)
        return self._mac.transmit(allocation, channel)


def reference_cell_powers(rrc, ue: int) -> list[tuple[int, float]]:
    """(cell, DL dBm) for every eNB, from the path-loss formula at the
    positions the channel's provider gives now; nothing is kept between calls."""
    channel, binder = rrc.channel, rrc.binder
    out = []
    for cell in binder.cells:
        tx = binder.node(cell)
        d = reference_distance_m(channel.where, cell, ue)
        loss = reference_path_loss_db(d, channel.params)
        out.append((cell, tx.tx_power_dbm - loss - channel.shadowing_db(cell, ue)))
    return out


def reference_handover_check(rrc, ue: int, now_us: int):
    """A full A3 evaluation: the best neighbour must beat the serving cell by
    more than the hysteresis for the whole time-to-trigger; no budget. The
    pending candidate lives in `rrc._states`, which handover and leave clear."""
    if not rrc.config.enabled or len(rrc.binder.cells) < 2:
        return None
    serving = rrc.binder.node(ue).serving_cell
    powers = dict(reference_cell_powers(rrc, ue))
    neighbours = [(power, -cell) for cell, power in powers.items() if cell != serving]
    best_power, neg_cell = max(neighbours)  # ties to the lowest id
    best_cell = -neg_cell
    if best_power - powers[serving] <= rrc.config.hysteresis_db:
        rrc._states.pop(ue, None)
        return None
    state = rrc._states.get(ue)
    if state is None or state.candidate != best_cell:
        state = rrc._states[ue] = HandoverState(best_cell, now_us)
    if now_us - state.condition_since_us >= rrc.config.time_to_trigger_us:
        del rrc._states[ue]
        return best_cell
    return None


def _unmemoized(channel, read):
    """`read` run after the channel drops what it kept from earlier calls."""

    def fresh(*args):
        channel._new_time()
        return read(*args)

    return fresh


def reference_mode(scn):
    """Patch the skips out of a built `Scenario`, in place: every TTI reads
    every live UE, A3-checks it and measures it in both directions, with no
    DL CQI kept from an earlier tick; attach and every A3 check compute
    every eNB's power from the path-loss formula, with no movement budget;
    every grant's SINR is taken; and each `measure` and `sinr` call reads
    every position and sum afresh, keeping nothing from an earlier call.
    `measure` keeps its own sums, so equal bytes never rest on float order."""
    scn.mac = MeasureEveryone(scn.mac)
    scn._dl_cqi = lambda ue, cell, now: scn.channel.measure(ue, cell, Direction.DL).cqi
    scn.channel.measure = _unmemoized(scn.channel, scn.channel.measure)
    scn.channel.sinr = _unmemoized(scn.channel, scn.channel.sinr)
    scn.channel.cell_powers = lambda ue: [p for _, p in reference_cell_powers(scn.rrc, ue)]
    scn.rrc.handover_check = lambda ue, now_us: reference_handover_check(scn.rrc, ue, now_us)
    scn._due_checks = lambda now: [rec.node_id for rec in scn.binder.live_nodes(NodeKind.UE)]
    scn._queue_check = lambda ue, now: None
    return scn


def eager_flow_events(spec, until_us: int) -> list:
    """Every PACKET_ARRIVAL event of one expanded flow, built up front: at
    start, start+interval, ... strictly before stop and no later than
    `until_us`, packet `seq` counting from 0."""
    events = []
    t = spec.start_us
    seq = 0
    while t < spec.stop_us and t <= until_us:
        packet = Packet(spec.name, seq, spec.target, spec.direction, spec.packet_bits, t)
        events.append(SimEvent(t, EventKind.PACKET_ARRIVAL, packet))
        seq += 1
        t += spec.interval_us
    return events


def eager_mode(scn):
    """Give a built `Scenario`, in place, a fresh engine holding the eager
    schedule: the enter/leave events up to the run's end, then every arrival
    of every flow (flow by flow, in time order), then SIM_END, then the first
    tick, each taking the next sequence number; no arrival schedules
    another."""
    config = scn.config
    engine = Engine()
    for kind, handler in scn.engine._handlers.items():
        engine.on(kind, handler)
    for event in lifecycle_events(v.traj for v in scn.vehicles.values()):
        if event.fire_time <= config.sim_end_us:
            engine.schedule(event)
    for flow in expand_flows(list(config.flows), list(scn.vehicles)):
        for event in eager_flow_events(flow, config.sim_end_us):
            engine.schedule(event)
    engine.schedule_at(config.sim_end_us, EventKind.SIM_END)
    if config.sim_end_us > 0:
        engine.schedule_at(0, EventKind.TTI_TICK, 0)
    scn.engine = engine
    scn._arrivals = {name: iter(()) for name in scn._arrivals}
    return scn
