"""Broadcast cycle construction and index timing for one cell.

A program lays the published objects out over one or more channels, all
sharing one cycle length, under a chosen indexing scheme:

  NONE            data slots only
  DISTRIBUTED     one index slot immediately before each data slot
  ONCE_PER_CYCLE  one aggregate index slot at the start of the cycle
  ONE_M(m)        the whole aggregate index repeated m times, equally spaced

Every index slot carries the full directory (object -> channel, slot), so a
client that has read any index segment can plan retrieval of any object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

DATA = "data"
INDEX = "index"
PAD = "pad"


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
class Slot:
    kind: str  # DATA | INDEX | PAD
    object_id: str | None = None


@dataclass(frozen=True)
class BroadcastProgram:
    """One immutable broadcast cycle across all channels of a cell."""

    channels: tuple[tuple[Slot, ...], ...]
    cycle_len_slots: int
    scheme: IndexScheme
    dedicated_index_channel: bool = False
    directory: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def index_slots(self, channel: int) -> list[int]:
        return [i for i, s in enumerate(self.channels[channel]) if s.kind == INDEX]

    @cached_property
    def index_positions(self) -> tuple[int, ...]:
        """``index_slots(0)``, worked out once: where every index read is made."""
        return tuple(self.index_slots(0))

    def index_segment_count(self) -> int:
        """Aggregate index segments per cycle on an index-carrying channel."""
        if self.dedicated_index_channel:
            return self.cycle_len_slots
        if self.scheme.kind == "once_per_cycle":
            return 1
        if self.scheme.kind == "one_m":
            return len(self.index_positions)
        raise NotApplicable(f"scheme {self.scheme.kind!r} has no aggregate index")


def _split_even(n: int, m: int) -> list[int]:
    """n items into m contiguous groups, earlier groups one larger."""
    base, extra = divmod(n, m)
    return [base + (1 if i < extra else 0) for i in range(m)]


def _layout_positions(n_data: int, scheme: IndexScheme) -> tuple[list[int], list[int]]:
    """Cycle positions of (index slots, data slots) for one channel."""
    if scheme.kind == "none":
        return [], list(range(n_data))
    if scheme.kind == "distributed":
        return [2 * i for i in range(n_data)], [2 * i + 1 for i in range(n_data)]
    if scheme.kind == "once_per_cycle":
        return [0], list(range(1, 1 + n_data))
    m = min(scheme.m, n_data) if n_data >= 1 else 1
    groups = _split_even(n_data, m)
    index_pos: list[int] = []
    data_pos: list[int] = []
    cursor = 0
    for size in groups:
        index_pos.append(cursor)
        cursor += 1
        data_pos.extend(range(cursor, cursor + size))
        cursor += size
    return index_pos, data_pos


def build_program(
    published: list[str],
    channels: int,
    scheme: IndexScheme,
    dedicated_index_channel: bool = False,
) -> BroadcastProgram:
    """Build one broadcast cycle.

    Objects are assigned round-robin across (data) channels in the given
    order, preserving the planner's ordering. Index slots are injected per
    scheme; positions are computed from the fullest channel so they coincide
    on every channel, and shorter channels are padded to the common cycle
    length. With a dedicated index channel, channel 0 carries only index
    slots and the data channels carry bare data.
    """
    if channels < 1:
        raise ValueError("need at least one channel")
    if not published:
        raise ValueError("published set is empty")
    if dedicated_index_channel and channels < 2:
        raise ValueError("dedicated index channel needs at least 2 channels")

    data_channels = channels - 1 if dedicated_index_channel else channels
    per_channel: list[list[str]] = [[] for _ in range(data_channels)]
    for i, obj in enumerate(published):
        per_channel[i % data_channels].append(obj)
    n_max = max(len(ch) for ch in per_channel)

    data_scheme = NONE if dedicated_index_channel else scheme
    index_pos, data_pos = _layout_positions(n_max, data_scheme)
    cycle_len = (max(index_pos + data_pos) + 1) if (index_pos or data_pos) else 0

    layouts: list[tuple[Slot, ...]] = []
    directory: dict[str, tuple[int, int]] = {}
    channel_offset = 1 if dedicated_index_channel else 0
    for ch, objs in enumerate(per_channel):
        slots = [Slot(PAD)] * cycle_len
        for pos in index_pos:
            slots[pos] = Slot(INDEX)
        for obj, pos in zip(objs, data_pos):
            slots[pos] = Slot(DATA, obj)
            directory[obj] = (ch + channel_offset, pos)
        layouts.append(tuple(slots))
    if dedicated_index_channel:
        layouts.insert(0, tuple(Slot(INDEX) for _ in range(cycle_len)))

    return BroadcastProgram(
        channels=tuple(layouts),
        cycle_len_slots=cycle_len,
        scheme=scheme,
        dedicated_index_channel=dedicated_index_channel,
        directory=directory,
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
