"""Radio abstraction: path loss, shadowing, SINR, CQI, and MCS gating.

The propagation model is log-distance path loss, PL = A + B*log10(d / 1 km),
with the distance clamped below at a minimum coupling distance. Fast fading
is not modeled; optional log-normal shadowing draws one dB offset per node
pair from the channel's own RNG, seeded with the run seed, and holds it for
the whole run. A pair is drawn at its first query; in a run that is when the
vehicle attaches, since attach queries its pair with every eNB, so later
queries never draw and may be skipped or reordered freely.

Per-RB SINR is signal over (thermal noise + sum of co-channel received
powers), where co-channel transmitters come from the binder's allocation
ledger: other cells' eNBs in downlink, other cells' UEs in uplink. Every
pair's power comes from `received_power_dbm`, the one path-loss formula.
`measure` averages SINR over the whole `last` grid: RBs with the same
occupants see the same interference I, so the mean is signal x ((free RBs)
/ N + sum over distinct patterns of RB count / (N + I)) / RBs. Its float
order is not a per-RB walk's, so a CQI can differ from the walk's only
where the mean lies within an ulp of a threshold (the bench digests at
seeds 1-3 were checked unchanged). Pairs are still first queried, and so
drawn, in the order of a per-RB walk by ascending RB.

Positions are pulled, never pushed: `where(node)` is the node's position
at `clock.now`. A position read is kept until the time moves on (an eNB's
for the run), and so is a cell's uplink bracket above, which all its UEs
share; a downlink bracket has one reader and is not kept. `last` is
re-indexed per grid the binder hands over, as it never edits a closed one.
SINR stays linear: it is averaged and compared in the linear domain. The
mean SINR maps to a 4-bit CQI through a threshold table, the CQI selects
the MCS, and decoding succeeds exactly when the mean SINR over a grant's
RBs is at or above the threshold of the CQI it was sent with. The dB
threshold table is converted to linear once, so CQI selection and the
decode gate read the same number.

Movement budgets. Path loss changes at most R = B / (d_min ln 10) dB per
metre of distance (`max_loss_slope_db_per_m`; it is steepest at the
clamp), and eNBs never move. So a figure that moves at most 2R dB per
metre the receiver moves, with m dB of margin left, cannot use it up
within (m - 1e-6) / 2R metres (`movement_budget_m`; 1e-6 dB covers float
error). The A3 check's best - serving is one such figure. A DL mean SINR
is another while the serving cell and the `last` DL patterns stay the
same: the UE's moves change the signal, and every eNB interferer of every
pattern, by at most R dB per metre each, so the bracket, a sum of
positive terms each inverse in one pattern's noise plus interference, by
at most R, and the mean by at most 2R. `cqi_budget_m` takes m as the
report's distance to the nearer edge of its CQI's band (CQI 0 has no
lower edge, CQI 15 no upper one). UL has no such budget: its interferers
are UEs, which move.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from .binder import Binder, Direction
from .errors import ChannelError

THERMAL_NOISE_DBM_PER_HZ = -174.0
RESOURCE_ELEMENTS_PER_RB = 144

# Link adaptation tables, index 0 holds CQI 1. Spectral efficiencies follow
# the standard 4-bit CQI table; one RB carries floor(efficiency * 144) bits.
CQI_SINR_THRESHOLDS_DB = (
    -6.7, -4.7, -2.3, 0.2, 2.4, 4.3, 5.9, 8.1, 10.3, 11.7, 14.1, 16.3, 18.7, 21.0, 22.7,
)
CQI_EFFICIENCY = (
    0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766, 1.9141,
    2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547,
)
CQI_BITS_PER_RB = tuple(math.floor(eff * RESOURCE_ELEMENTS_PER_RB) for eff in CQI_EFFICIENCY)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class ChannelParams:
    pathloss_a_db: float = 128.1
    pathloss_b_db: float = 37.6
    min_distance_m: float = 35.0
    noise_figure_db: float = 9.0
    rb_bandwidth_hz: float = 180e3
    shadowing_enabled: bool = False
    shadowing_sigma_db: float = 8.0


@dataclass(frozen=True)
class CqiTables:
    sinr_thresholds_db: tuple[float, ...] = CQI_SINR_THRESHOLDS_DB
    bits_per_rb: tuple[int, ...] = CQI_BITS_PER_RB
    # linear copy of sinr_thresholds_db, derived once below
    sinr_thresholds: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sinr_thresholds", tuple(db_to_linear(t) for t in self.sinr_thresholds_db)
        )


@dataclass
class ChannelReport:
    """One UE's view of one cell: mean SINR over the grid (linear) and CQI."""

    mean_sinr: float
    cqi: int


def path_loss_db(distance_m: float, params: ChannelParams) -> float:
    """Log-distance path loss with the minimum coupling distance clamp: the
    loss a 0 dBm transmitter sees, bit for bit."""
    return -received_power_dbm(0.0, (0.0, 0.0), (distance_m, 0.0), params)


def noise_dbm(params: ChannelParams) -> float:
    """Thermal noise over one RB plus the receiver noise figure."""
    rb_noise = THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(params.rb_bandwidth_hz)
    return rb_noise + params.noise_figure_db


def received_power_dbm(
    tx_power_dbm: float,
    tx_pos: tuple[float, float],
    rx_pos: tuple[float, float],
    params: ChannelParams,
    shadowing_db: float = 0.0,
) -> float:
    """The one path-loss formula: transmit power less PL and shadowing."""
    d = max(math.hypot(tx_pos[0] - rx_pos[0], tx_pos[1] - rx_pos[1]), params.min_distance_m)
    loss = params.pathloss_a_db + params.pathloss_b_db * math.log10(d / 1000.0)
    return tx_power_dbm - loss - shadowing_db


def cqi_from_sinr(mean_sinr: float, tables: CqiTables) -> int:
    """Largest CQI whose threshold the linear mean SINR meets; 0 below the lowest."""
    return bisect_right(tables.sinr_thresholds, mean_sinr)


def decode(per_rb_sinr: Sequence[float], cqi_used: int, tables: CqiTables) -> bool:
    """True iff the mean of the linear per-RB SINRs meets the CQI's threshold."""
    if not 1 <= cqi_used <= 15:
        raise ChannelError(f"cqi_used must be in 1..15, got {cqi_used}")
    if not per_rb_sinr:
        raise ChannelError("cannot decode over an empty SINR list")
    return sum(per_rb_sinr) / len(per_rb_sinr) >= tables.sinr_thresholds[cqi_used - 1]


def bits_per_rb(cqi: int, tables: CqiTables) -> int:
    if not 1 <= cqi <= 15:
        raise ChannelError(f"no transport block for CQI {cqi}")
    return tables.bits_per_rb[cqi - 1]


class PatternIndex:
    """One grid direction's distinct occupant tuples, ((cell, transmitter), ...),
    each with the number of RBs it fills, in order of first appearance by
    ascending RB, and the number of occupied RBs. Compared and hashed by
    identity, so it keys memos of this one index."""

    def __init__(self, rows: dict[int, list[int]]) -> None:
        counts = Counter(zip(*rows.values()))  # one column per RB
        counts.pop((0,) * len(rows), None)  # the free RBs
        self.patterns = [
            (tuple((c, tx) for c, tx in zip(rows, column) if tx), count)
            for column, count in counts.items()
        ]
        self.occupied = sum(counts.values())


class ChannelModel:
    """Binds propagation parameters to the binder's registry and ledger.
    `where(node_id)` gives a node's (x, y) in metres at `clock.now`."""

    def __init__(
        self, binder: Binder, params: ChannelParams, tables: CqiTables, where, clock, seed: int = 0
    ) -> None:
        self.binder = binder
        self.params = params
        self.tables = tables
        self.where = where
        self.clock = clock
        self._noise_mw = db_to_linear(noise_dbm(params))
        # dB per metre: path loss is steepest at the minimum coupling distance
        self.max_loss_slope_db_per_m = params.pathloss_b_db / params.min_distance_m / math.log(10)
        self._rng = random.Random(seed)
        self._shadowing_db: dict[tuple[int, int], float] = {}
        self._now = -1  # the time of the positions and UL brackets (index, cell) kept
        self._pos: dict[int, tuple[float, float]] = {}
        self._brackets: dict[tuple[PatternIndex, int], float] = {}
        # per direction, the `last` grid dict `measure` indexed, and its index
        self._last_index: dict[Direction, tuple[dict, PatternIndex]] = {}

    def _new_time(self) -> None:
        """Drop what was read at an earlier time; eNB positions stay."""
        self._now, pos = self.clock.now, self._pos
        self._pos = {cell: pos[cell] for cell in self.binder.cells if cell in pos}
        self._brackets.clear()

    def shadowing_db(self, node_a: int, node_b: int) -> float:
        """The pair's shadowing loss, drawn at its first query; reciprocal."""
        if not self.params.shadowing_enabled:
            return 0.0
        key = (node_a, node_b) if node_a <= node_b else (node_b, node_a)
        loss = self._shadowing_db.get(key)
        if loss is None:
            loss = self._shadowing_db[key] = self._rng.gauss(0.0, self.params.shadowing_sigma_db)
        return loss

    def forget(self, ue_id: int) -> None:
        """Drop a leaving UE's draws; ids are never reused, so none is read again."""
        for cell in self.binder.cells:
            self._shadowing_db.pop((cell, ue_id) if cell <= ue_id else (ue_id, cell), None)

    def _dbm(self, tx_id: int, rx_id: int) -> float:
        """dBm received at `rx_id` from `tx_id` where both are now."""
        pos, tx_power = self._pos, self.binder.nodes[tx_id].tx_power_dbm
        try:
            tx_pos, rx_pos = pos[tx_id], pos[rx_id]
        except KeyError:  # a first read at this time: ask `where`
            tx_pos = pos[tx_id] = pos.get(tx_id) or self.where(tx_id)
            rx_pos = pos[rx_id] = pos.get(rx_id) or self.where(rx_id)
        shadowing = self.shadowing_db(tx_id, rx_id)
        return received_power_dbm(tx_power, tx_pos, rx_pos, self.params, shadowing)

    def cell_powers(self, ue_id: int) -> list[float]:
        """DL dBm the UE receives from each eNB, in `binder.cells` order."""
        if self._now != self.clock.now:
            self._new_time()
        return [self._dbm(cell, ue_id) for cell in self.binder.cells]

    def rx_power_from_cell(self, ue_id: int, cell_id: int) -> float:
        """DL dBm the UE receives from one eNB: its entry of `cell_powers`."""
        return self.cell_powers(ue_id)[self.binder.cells.index(cell_id)]

    def _interference_mw(
        self, occupants: Iterable[tuple[int, int]], rx_id: int, serving_cell: int
    ) -> float:
        """Co-channel interference (mW) at `rx_id` from the (cell, transmitter)
        occupants of one RB outside `serving_cell` (transmitter 0: none), in item order."""
        total = 0.0
        for cell, tx_id in occupants:
            if tx_id and cell != serving_cell:
                total += db_to_linear(self._dbm(tx_id, rx_id))
        return total

    def check_allocated(
        self, ue: int, serving_cell: int, direction: Direction, rb_set: Sequence[int]
    ) -> None:
        """ChannelError unless `rb_set` ascends strictly and the binder's
        `current` grid allocates each of its RBs to this link's transmitter."""
        tx_id = serving_cell if direction is Direction.DL else ue
        row, prev = self.binder.current[direction].get(serving_cell, ()), -1
        num_rbs = len(row)  # 0 without a row
        for rb in rb_set:
            if not prev < rb < num_rbs or row[rb] != tx_id:
                raise ChannelError(
                    f"RB {rb} of cell {serving_cell} ({direction.value}) is not allocated "
                    f"to node {tx_id} in a strictly ascending RB set"
                )
            prev = rb

    def sinr(
        self, ue: int, serving_cell: int, direction: Direction, rb_set: Sequence[int]
    ) -> list[float]:
        """Per-RB linear SINR of a transmission on RBs the `current` grid
        allocates it (`check_allocated`), by ascending RB; the co-channel
        transmitters that grid holds interfere, summed once per occupant tuple."""
        if self._now != self.clock.now:
            self._new_time()
        tx, rx = (serving_cell, ue) if direction is Direction.DL else (ue, serving_cell)
        signal_mw = db_to_linear(self._dbm(tx, rx))
        self.check_allocated(ue, serving_cell, direction, rb_set)
        rows = self.binder.current[direction]
        noise, sinrs, out = self._noise_mw, {}, []
        if len(rb_set) > 1:  # each RB's column of transmitters, one per row
            columns = zip(*map(itemgetter(*rb_set), rows.values()))
        else:  # itemgetter of one index gives the item, not a 1-tuple
            columns = [tuple([row[rb] for row in rows.values()]) for rb in rb_set]
        for column in columns:
            if column not in sinrs:  # at its first RB, so pairs are queried in walk order
                interference = self._interference_mw(zip(rows, column), rx, serving_cell)
                sinrs[column] = signal_mw / (noise + interference)
            out.append(sinrs[column])
        return out

    def last_index(self, direction: Direction) -> PatternIndex:
        """The patterns of the binder's `last` grid in `direction`, which `measure` sums over."""
        grid = self.binder.last[direction]
        cached = self._last_index.get(direction)
        if cached is None or cached[0] is not grid:
            cached = self._last_index[direction] = (grid, PatternIndex(grid))
        return cached[1]

    def movement_budget_m(self, margin_db: float) -> float:
        """Metres a receiver may move before a figure that moves at most 2R dB
        per metre can use up `margin_db`; 0 or less leaves none."""
        return (margin_db - 1e-6) / (2.0 * self.max_loss_slope_db_per_m)

    def cqi_budget_m(self, report: ChannelReport) -> float:
        """Metres the UE of a DL `report` may move before its CQI can change,
        while its serving cell and the `last` DL patterns stay as measured
        (an underflowed mean, which has no margin in dB, gets none)."""
        thresholds, cqi, mean = self.tables.sinr_thresholds, report.cqi, report.mean_sinr
        if not mean > 0.0:
            return 0.0
        above = mean / thresholds[cqi - 1] if cqi else math.inf  # CQI 0 has no lower edge
        below = thresholds[cqi] / mean if cqi < len(thresholds) else math.inf  # nor 15 an upper
        return self.movement_budget_m(10.0 * math.log10(min(above, below)))

    def measure(self, ue: int, serving_cell: int, direction: Direction) -> ChannelReport:
        """CQI report over every RB of the binder's `last` grid, allocated or
        not, with the last completed TTI's interference; a free RB sees S/N."""
        if self._now != self.clock.now:
            self._new_time()
        if ue not in self._pos:  # a tick reads a UE here first: spare `_dbm` the KeyError
            self._pos[ue] = self.where(ue)
        tx, rx = (serving_cell, ue) if direction is Direction.DL else (ue, serving_cell)
        signal_mw = db_to_linear(self._dbm(tx, rx))
        index = self.last_index(direction)
        bracket = self._brackets.get((index, rx))  # never a DL one: it has one reader
        if bracket is None:
            noise = self._noise_mw
            bracket = (self.binder.num_rbs - index.occupied) / noise
            for occupants, count in index.patterns:
                bracket += count / (noise + self._interference_mw(occupants, rx, serving_cell))
            if direction is Direction.UL:  # a cell's sum, shared by all its UEs
                self._brackets[(index, rx)] = bracket
        mean = signal_mw * bracket / self.binder.num_rbs
        return ChannelReport(mean_sinr=mean, cqi=cqi_from_sinr(mean, self.tables))
