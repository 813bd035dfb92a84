"""Per-TTI MAC: transmit buffers, RB scheduling, and decode-gated delivery.

Buffers are FIFO and tail-drop with a fixed bit capacity. Packets are
MAC-atomic: one that does not fit in a grant's remaining capacity stays
queued for a later TTI, so bit accounting is exact. Each grant that
carries a packet gets one decode decision per TTI, taken on the linear-mean
SINR over its RBs; a failed decode drops the packets it carried (no HARQ).
A grant that carries nothing is not decode-gated, and its SINR is never
computed. `backlogged` is the buffer map: per direction, each node whose
buffer holds bits, and that buffer. `enqueue` adds a node, and `transmit`
that empties its buffer, or `clear`, removes it, so no buffer is kept
empty.

Both schedulers read each backlogged UE's RB demand, ceil(buffered bits /
bits per RB at its CQI), worked out once per TTI. Round robin deals RBs one
at a time from a rotation of the UEs still short of their demand, in
ascending node-id order, starting each TTI after the UE that took the last
RB of the previous one; it runs in time linear in RBs plus UEs, and over a
window with a stable backlog it hands every UE exactly the same number of
RBs per full rotation. The max-CQI scheduler instead fills greedily in
descending CQI order (ties to the lowest node id), spilling capacity a UE
cannot use to the runner-up.

Each cell and direction deals a distinct (pointer, backlog) once. A
schedule is a pure function of the round-robin pointer (max-CQI reads
none), the backlog as ascending (ue, cqi, demand) and `num_rbs`, and no
UE can take more than `num_rbs` RBs, so a demand counts up to `num_rbs`.
A memo slot per cell and direction keeps the last backlog, and under it
the grants and last UE dealt from each pointer: a repeat returns a copy
and moves the pointer as a fresh deal would, and a new backlog replaces
the slot. A slot so holds at most one deal per UE of its backlog, plus
one for the pointer it arrived with.

Every deal is checked once when built, and every row install is checked.
With each deal the slot keeps the grid row its grants fill: the
transmitter on each RB (the cell on DL, the UE on UL), 0 on a free one,
written and ledger-checked once by `binder.book`, the check that
`Binder.record_allocation` makes. The scenario installs a copy of the row
in the binder's `current` grid (`Binder.install_row`), which refuses a
second row for the cell and direction and a granted UE that is not live,
and `transmit` checks that the grid still holds the row. That is exact:
a repeat hands out the grants the row was built from; the ledger check
reads only their RBs, the grid's size and the row being filled, and a
cell's row is empty until its one install per TTI, so recording grant by
grant would write the same row and raise nothing new. Liveness, the one
fact that can change while a deal repeats, is checked at every install.
So a grant that carries nothing is in the grid by construction, and only
one that carries packets has its RBs checked again, by `sinr`. A
hand-built allocation carries no row, and each of its grants is checked
on its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import ceil
from typing import Optional, Sequence

from .binder import Binder, Direction, book
from .channel import ChannelModel, bits_per_rb, decode
from .errors import ChannelError, MacError
from .traffic import Packet

BUFFER_CAPACITY_BITS = 8 * 2**20  # 1 MiB per buffer, tail-drop beyond


class TxBuffer:
    """FIFO queue of packets for one endpoint and direction."""

    def __init__(self) -> None:
        self.queue: deque[Packet] = deque()
        self.occupancy_bits = 0


@dataclass(frozen=True)
class Grant:
    """RBs strictly ascending inside the grid, which binder and channel require."""

    rb_set: tuple[int, ...]
    cqi_used: int


@dataclass
class Allocation:
    """A cell's grants in one direction for one TTI.

    A scheduled allocation with grants also carries `row`, the grid row
    they fill as dealt (transmitter per RB, 0 if free), and `rb_count`,
    the RBs they hold; a hand-built one carries neither."""

    cell: int
    direction: Direction
    grants: dict[int, Grant] = field(default_factory=dict)
    row: Optional[tuple[int, ...]] = None
    rb_count: int = 0


@dataclass
class GrantOutcome:
    """One grant's result: the packets it carried are delivered if it
    decoded, else their bits are dropped.

    A grant that carried nothing is not decode-gated: it reports
    `decoded=True`, nothing delivered and 0 bits dropped.
    """

    rb_count: int
    decoded: bool
    delivered: list[Packet]
    dropped_bits: int


@dataclass
class TtiOutcome:
    grant_outcomes: dict[int, GrantOutcome] = field(default_factory=dict)


class Mac:
    def __init__(
        self, binder: Binder, capacity_bits: int = BUFFER_CAPACITY_BITS
    ) -> None:
        self.binder = binder
        self.capacity_bits = capacity_bits
        self._rr_pointer: dict[tuple[int, Direction], int] = {}
        # (cell, direction) -> (backlog, {pointer: (grants, last UE, row, RB count)})
        self._memo: dict[tuple[int, Direction], tuple[tuple, dict]] = {}
        self.backlogged: dict[Direction, dict[int, TxBuffer]] = {Direction.DL: {}, Direction.UL: {}}

    # ------------------------------------------------------------------
    # buffers

    def enqueue(self, owner: int, packet: Packet) -> bool:
        """Queue a packet in its direction; False means it was tail-dropped."""
        if not self.binder.is_live(owner):
            raise MacError(f"cannot enqueue for node {owner}: not registered")
        if packet.size_bits <= 0:
            raise MacError(
                f"packet {packet.packet_id} has non-positive size {packet.size_bits}"
            )
        buffers = self.backlogged[packet.direction]
        buf = buffers.get(owner) or TxBuffer()
        if buf.occupancy_bits + packet.size_bits > self.capacity_bits:
            return False
        buf.queue.append(packet)
        buf.occupancy_bits += packet.size_bits
        buffers[owner] = buf
        return True

    def buffer_bits(self, owner: int, direction: Direction) -> int:
        buf = self.backlogged[direction].get(owner)
        return buf.occupancy_bits if buf else 0

    def clear(self, owner: int, direction: Direction) -> int:
        """Free a node's buffer in one direction; returns the bits it held."""
        buf = self.backlogged[direction].pop(owner, None)
        return buf.occupancy_bits if buf else 0

    def clear_node(self, owner: int) -> int:
        """Free both of a node's buffers; returns the bits they held."""
        return self.clear(owner, Direction.DL) + self.clear(owner, Direction.UL)

    # ------------------------------------------------------------------
    # scheduling

    def _backlogged(
        self, direction: Direction, ues_with_cqi: Sequence[tuple[int, int]], tables
    ) -> tuple[tuple[int, int, int], ...]:
        """(ue, cqi, RB demand up to num_rbs) of each schedulable UE, in
        ascending node id."""
        num_rbs = self.binder.num_rbs
        return tuple(
            (ue, cqi, min(ceil(bits / bits_per_rb(cqi, tables)), num_rbs))
            for ue, cqi in sorted(ues_with_cqi)
            if cqi >= 1 and (bits := self.buffer_bits(ue, direction)) > 0
        )

    def _dealt(self, key, backlog, pointer, deal) -> tuple:
        """`deal(backlog, pointer)`, the (grants, last UE) of a schedule, with
        the grid row and RB count of its grants (`_row`), kept in `key`'s memo
        slot while the backlog repeats."""
        slot = self._memo.get(key)
        if slot is None or slot[0] != backlog:
            slot = self._memo[key] = (backlog, {})
        dealt = slot[1].get(pointer)
        if dealt is None:
            grants, last = deal(backlog, pointer)
            dealt = slot[1][pointer] = (grants, last, *self._row(key, grants))
        return dealt

    def _row(self, key, grants) -> tuple[Optional[tuple[int, ...]], int]:
        """The grid row that `grants` fill in `key`'s (cell, direction), each
        one ledger-checked by `book`, and the RBs they hold; None for no grant."""
        if not grants:
            return None, 0
        cell, direction = key
        row = [0] * self.binder.num_rbs
        for ue, grant in grants.items():
            book(row, direction, cell, grant.rb_set, cell if direction is Direction.DL else ue)
        return tuple(row), len(row) - row.count(0)

    def schedule_tti_rr(
        self,
        cell: int,
        direction: Direction,
        ues_with_cqi: Sequence[tuple[int, int]],
        tables,
    ) -> Allocation:
        """Round-robin: deal RBs one by one, resuming after last TTI's stop."""
        key = (cell, direction)
        pointer = self._rr_pointer.get(key, 0)  # node ids start at 1
        backlog = self._backlogged(direction, ues_with_cqi, tables)
        grants, last, row, rb_count = self._dealt(key, backlog, pointer, self._deal_rr)
        if last is not None:
            self._rr_pointer[key] = last
        return Allocation(cell, direction, dict(grants), row, rb_count)

    def _deal_rr(self, backlog, pointer) -> tuple[dict[int, Grant], int | None]:
        """Round robin from after `pointer`: the grants and the UE that took
        the last RB, None for an empty backlog."""
        entries = [(ue, cqi, demand, []) for ue, cqi, demand in backlog]
        start = sum(entry[0] <= pointer for entry in entries)
        short = deque(entries[start:] + entries[:start])  # UEs short of demand
        ue = None
        for rb in range(self.binder.num_rbs):
            if not short:
                break
            entry = short.popleft()
            ue, _, demand, rbs = entry
            rbs.append(rb)
            if len(rbs) < demand:
                short.append(entry)
        grants = {owner: Grant(tuple(rbs), cqi) for owner, cqi, _, rbs in entries if rbs}
        return grants, ue

    def schedule_tti_maxcqi(
        self,
        cell: int,
        direction: Direction,
        ues_with_cqi: Sequence[tuple[int, int]],
        tables,
    ) -> Allocation:
        """Greedy fill by descending CQI, ties to the lowest node id."""
        backlog = self._backlogged(direction, ues_with_cqi, tables)
        grants, _, row, rb_count = self._dealt((cell, direction), backlog, None, self._deal_maxcqi)
        return Allocation(cell, direction, dict(grants), row, rb_count)

    def _deal_maxcqi(self, backlog, _pointer) -> tuple[dict[int, Grant], None]:
        """Max-CQI greedy fill: the grants, and None for the pointer it ignores."""
        grants = {}
        rb_cursor = 0
        for ue, cqi, demand in sorted(backlog, key=lambda item: (-item[1], item[0])):
            if rb_cursor >= self.binder.num_rbs:
                break
            take = min(demand, self.binder.num_rbs - rb_cursor)
            grants[ue] = Grant(tuple(range(rb_cursor, rb_cursor + take)), cqi)
            rb_cursor += take
        return grants, None

    # ------------------------------------------------------------------
    # transmission

    def transmit(self, allocation: Allocation, channel: ChannelModel) -> TtiOutcome:
        """Serve each grant through the decode gate at realized interference.

        The packets that fit are taken first, and SINR is computed only for
        a grant that took any. The allocation must already be in the binder's
        `current` grid, so that overlapping cells see each other as
        interference. ChannelError unless the grid holds a scheduled
        allocation's row as dealt; a hand-built allocation's grants are each
        checked by `ChannelModel.check_allocated`, whether or not they carry
        anything, and `sinr` checks every grant that carries packets.
        """
        outcome = TtiOutcome()
        cell, direction, row = allocation.cell, allocation.direction, allocation.row
        if row is not None and self.binder.current[direction].get(cell) != list(row):
            raise ChannelError(
                f"the {direction.value} grid row of cell {cell} is not the row its allocation was dealt"
            )
        buffers = self.backlogged[direction]
        for ue in sorted(allocation.grants):
            grant = allocation.grants[ue]
            buf = buffers.get(ue) or TxBuffer()  # a hand-built grant may have none
            taken: list[Packet] = []
            remaining = len(grant.rb_set) * bits_per_rb(grant.cqi_used, channel.tables)
            while buf.queue and buf.queue[0].size_bits <= remaining:
                pkt = buf.queue.popleft()
                buf.occupancy_bits -= pkt.size_bits
                remaining -= pkt.size_bits
                taken.append(pkt)
            if not buf.queue:
                buffers.pop(ue, None)
            if taken:
                per_rb_sinr = channel.sinr(ue, cell, direction, grant.rb_set)
                decoded = decode(per_rb_sinr, grant.cqi_used, channel.tables)
            else:  # nothing to decode; a dealt grant is in its row, checked above
                if row is None:
                    channel.check_allocated(ue, cell, direction, grant.rb_set)
                decoded = True
            if decoded:
                result = GrantOutcome(len(grant.rb_set), True, taken, 0)
            else:
                dropped = sum(p.size_bits for p in taken)
                result = GrantOutcome(len(grant.rb_set), False, [], dropped)
            outcome.grant_outcomes[ue] = result
        return outcome
