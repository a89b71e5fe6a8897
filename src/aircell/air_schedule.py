"""Broadcast cycle construction and index timing for one cell.

A program lays the published objects out over one or more channels, all
sharing one cycle length, under a chosen indexing scheme. Objects are of
unit size: each airs in one slot of one channel per cycle, and an index
segment fills one slot. On each data channel:

  NONE            data slots only
  DISTRIBUTED     one index slot immediately before each data slot
  ONCE_PER_CYCLE  one aggregate index slot at the start of the cycle
  ONE_M(m)        the whole aggregate index repeated m times, equally spaced

With a dedicated index channel, channel 0 airs the index in every slot and
the data channels carry data only. A program is stored as its directory
(object -> channel, slot) and its index positions; every index slot carries
the full directory, so a client that has read any index segment can plan
retrieval of any object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

INDEX = "index"  # the label of an index read in a retrieval plan


class NotApplicable(Exception):
    """The scheme has no aggregate index segments to wait for."""


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
    scheme: IndexScheme
    dedicated_index_channel: bool = False
    directory: dict[str, tuple[int, int]] = field(default_factory=dict)
    # the index slots of channel 0, where every index read is made; each
    # data channel repeats them unless channel 0 is a dedicated index channel
    index_positions: tuple[int, ...] = ()

    def index_slots(self, channel: int) -> list[int]:
        if self.dedicated_index_channel and channel > 0:
            return []
        return list(self.index_positions)

    def index_segment_count(self) -> int:
        """Aggregate index segments per cycle on an index-carrying channel."""
        if self.scheme.kind in ("none", "distributed") and not self.dedicated_index_channel:
            raise NotApplicable(f"scheme {self.scheme.kind!r} has no aggregate index")
        return len(self.index_positions)


def _layout_positions(n_data: int, scheme: IndexScheme) -> tuple[list[int], list[int]]:
    """Cycle positions of (index slots, data slots) for a channel of n_data >= 1."""
    if scheme.kind == "none":
        return [], list(range(n_data))
    if scheme.kind == "distributed":
        return [2 * i for i in range(n_data)], [2 * i + 1 for i in range(n_data)]
    if scheme.kind == "once_per_cycle":
        return [0], list(range(1, 1 + n_data))
    # m contiguous groups of data, earlier groups one larger, each after an index slot
    m = min(scheme.m, n_data)
    base, extra = divmod(n_data, m)
    index_pos: list[int] = []
    data_pos: list[int] = []
    for group in range(m):
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
        scheme=scheme,
        dedicated_index_channel=dedicated_index_channel,
        directory=directory,
        index_positions=tuple(range(cycle_len) if dedicated_index_channel else index_pos),
    )


def expected_index_wait(program: BroadcastProgram) -> float:
    """Mean slots until the next aggregate index segment: L / (2m)."""
    m = program.index_segment_count()
    return program.cycle_len_slots / (2.0 * m)


def next_index_read_end(program: BroadcastProgram, now_slot: int) -> int:
    """Absolute slot at which the next index segment read completes.

    The client starts listening at ``now_slot``; the read occupies the next
    index slot at or after it on channel 0: the dedicated index channel if
    there is one, else a data channel, and every data channel carries the
    index slots at the same positions.
    """
    positions = program.index_positions
    if not positions:
        raise NotApplicable(f"scheme {program.scheme.kind!r} has no aggregate index")
    length = program.cycle_len_slots
    phase = now_slot % length
    return now_slot + min((p - phase) % length for p in positions)
