"""Broadcast cycle construction and index timing for one cell.

A program lays the published objects out over one or more channels, all
sharing one cycle length, under a chosen indexing scheme. Objects are of
unit size: each airs in one slot of one channel per cycle, and an index
segment fills one slot. Each data channel airs its n data slots in g
contiguous groups, earlier groups one slot larger, each after one index
slot:

  NONE            g = 0: data slots only
  ONCE_PER_CYCLE  g = 1: one index slot at the start of the cycle
  DISTRIBUTED     g = n: one index slot immediately before each data slot
  ONE_M(m)        g = min(m, n): the index repeated m times, equally spaced

With a dedicated index channel, channel 0 airs the index in every slot and
the data channels carry data only. A program is stored as its directory
(object -> channel, slot) and its index positions; every index slot carries
the full directory, so a client that has read any index segment can plan
retrieval of any object. A client tuning in at a uniform time waits
L / (2m) slots on average for the next of m index slots in a cycle of L.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

INDEX = "index"  # the label of an index read in a retrieval plan


class NotApplicable(Exception):
    """The program has no index slots to wait for."""


@dataclass(frozen=True)
class IndexScheme:
    kind: str  # "none" | "distributed" | "once_per_cycle" | "one_m"
    m: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("none", "distributed", "once_per_cycle", "one_m"):
            raise ValueError(f"unknown index scheme {self.kind!r}")
        if self.m < 1:
            raise ValueError("index replica count m must be >= 1")


NONE = IndexScheme("none")
DISTRIBUTED = IndexScheme("distributed")
ONCE_PER_CYCLE = IndexScheme("once_per_cycle")


def one_m(m: int) -> IndexScheme:
    return IndexScheme("one_m", m)


@dataclass(frozen=True)
class BroadcastProgram:
    """One immutable broadcast cycle across all channels of a cell: its
    directory and its index slots. Any other channel-slot is padding."""

    n_channels: int
    cycle_len_slots: int
    dedicated_index_channel: bool = False
    directory: dict[str, tuple[int, int]] = field(default_factory=dict)
    # the index slots of channel 0, ascending, where every index read is
    # made; each data channel repeats them unless channel 0 is a dedicated
    # index channel
    index_positions: tuple[int, ...] = ()

    def index_slots(self, channel: int) -> list[int]:
        if self.dedicated_index_channel and channel > 0:
            return []
        return list(self.index_positions)


def _layout_positions(n_data: int, scheme: IndexScheme) -> tuple[list[int], list[int]]:
    """Cycle positions of (index slots, data slots) for a channel of n_data >= 1,
    in the g groups of the module docstring."""
    groups = {"none": 0, "once_per_cycle": 1, "distributed": n_data}.get(
        scheme.kind, min(scheme.m, n_data)
    )
    if not groups:
        return [], list(range(n_data))
    base, extra = divmod(n_data, groups)
    index_pos: list[int] = []
    data_pos: list[int] = []
    for group in range(groups):
        index_pos.append(len(index_pos) + len(data_pos))
        start = index_pos[-1] + 1
        data_pos.extend(range(start, start + base + (group < extra)))
    return index_pos, data_pos


def build_program(
    published: list[str],
    channels: int,
    scheme: IndexScheme,
    dedicated_index_channel: bool = False,
) -> BroadcastProgram:
    """Build one broadcast cycle.

    Objects go round-robin over the d data channels in the planner's order:
    object i airs on data channel ``i mod d``, at data position ``i div d``.
    Index slots are placed per scheme among the ``ceil(n / d)`` data slots
    of the fullest channel, so they coincide on every channel. With a
    dedicated index channel, channel 0 carries only index slots and the
    data channels carry bare data.
    """
    if channels < 1:
        raise ValueError("need at least one channel")
    if not published:
        raise ValueError("published set is empty")
    if dedicated_index_channel and channels < 2:
        raise ValueError("dedicated index channel needs at least 2 channels")

    offset = 1 if dedicated_index_channel else 0
    data_channels = channels - offset
    n_max = -(-len(published) // data_channels)
    index_pos, data_pos = _layout_positions(
        n_max, NONE if dedicated_index_channel else scheme
    )
    cycle_len = len(index_pos) + len(data_pos)
    directory = {
        obj: (i % data_channels + offset, data_pos[i // data_channels])
        for i, obj in enumerate(published)
    }
    return BroadcastProgram(
        n_channels=channels,
        cycle_len_slots=cycle_len,
        dedicated_index_channel=dedicated_index_channel,
        directory=directory,
        index_positions=tuple(range(cycle_len) if dedicated_index_channel else index_pos),
    )


def expected_index_wait(program: BroadcastProgram) -> float:
    """Mean slots until the next index slot: L / (2m) for m index slots."""
    if not program.index_positions:
        raise NotApplicable("the program has no index slots")
    return program.cycle_len_slots / (2.0 * len(program.index_positions))


def next_index_read_end(program: BroadcastProgram, now_slot: int) -> int:
    """Absolute slot at which the next index segment read completes.

    The client starts listening at ``now_slot``; the read occupies the next
    index slot at or after it on channel 0: the dedicated index channel if
    there is one, else a data channel, and every data channel carries the
    index slots at the same positions.
    """
    positions = program.index_positions
    if not positions:
        raise NotApplicable("the program has no index slots")
    length = program.cycle_len_slots
    phase = now_slot % length
    i = bisect_left(positions, phase)
    # past the last index slot of the cycle, the first of the next
    return now_slot + (positions[i] if i < len(positions) else positions[0] + length) - phase
