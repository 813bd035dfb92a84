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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import ceil
from typing import Sequence

from .binder import Binder, Direction
from .channel import ChannelModel, bits_per_rb, decode
from .errors import MacError
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
    cell: int
    direction: Direction
    grants: dict[int, Grant] = field(default_factory=dict)

    def rb_count(self) -> int:
        return sum(len(g.rb_set) for g in self.grants.values())


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
    ) -> list[tuple[int, int, int]]:
        """(ue, cqi, RB demand) of each schedulable UE, in ascending node id."""
        return [
            (ue, cqi, ceil(bits / bits_per_rb(cqi, tables)))
            for ue, cqi in sorted(ues_with_cqi)
            if cqi >= 1 and (bits := self.buffer_bits(ue, direction)) > 0
        ]

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
        entries = [
            (ue, cqi, demand, [])
            for ue, cqi, demand in self._backlogged(direction, ues_with_cqi, tables)
        ]
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
        if ue is not None:  # the UE that took the last RB
            self._rr_pointer[key] = ue
        grants = {ue: Grant(tuple(rbs), cqi) for ue, cqi, _, rbs in entries if rbs}
        return Allocation(cell, direction, grants)

    def schedule_tti_maxcqi(
        self,
        cell: int,
        direction: Direction,
        ues_with_cqi: Sequence[tuple[int, int]],
        tables,
    ) -> Allocation:
        """Greedy fill by descending CQI, ties to the lowest node id."""
        backlogged = self._backlogged(direction, ues_with_cqi, tables)
        alloc = Allocation(cell, direction)
        rb_cursor = 0
        for ue, cqi, demand in sorted(backlogged, key=lambda item: (-item[1], item[0])):
            if rb_cursor >= self.binder.num_rbs:
                break
            take = min(demand, self.binder.num_rbs - rb_cursor)
            alloc.grants[ue] = Grant(tuple(range(rb_cursor, rb_cursor + take)), cqi)
            rb_cursor += take
        return alloc

    # ------------------------------------------------------------------
    # transmission

    def transmit(self, allocation: Allocation, channel: ChannelModel) -> TtiOutcome:
        """Serve each grant through the decode gate at realized interference.

        The packets that fit are taken first, and SINR is computed only for
        a grant that took any. The allocation must already be recorded in
        the binder grid so that overlapping cells see each other as
        interference; `ChannelModel.check_allocated` raises ChannelError for
        a granted RB that is not, or an RB set that does not ascend strictly,
        whether or not the grant carried anything.
        """
        outcome = TtiOutcome()
        cell, direction = allocation.cell, allocation.direction
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
            else:  # nothing to decode, but the grant must still be in the grid
                channel.check_allocated(ue, cell, direction, grant.rb_set)
                decoded = True
            if decoded:
                result = GrantOutcome(len(grant.rb_set), True, taken, 0)
            else:
                dropped = sum(p.size_bits for p in taken)
                result = GrantOutcome(len(grant.rb_set), False, [], dropped)
            outcome.grant_outcomes[ue] = result
        return outcome
