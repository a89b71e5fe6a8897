"""Multi-channel retrieval planning under tuning and switching constraints.

A client that has already read the aggregate index knows, for every desired
object, its channel and slot within the cycle. It can listen to one channel
at a time; retrieving an object occupies its slot; hopping channels costs
``switch_slots`` extra slots, so two retrievals on different channels must
be at least 1 + switch_slots apart while same-channel retrievals only need
to land on distinct slots.

Planners: Row Scan (one pass per interesting channel, minimal switches),
Next Object Access (earliest-feasible greedy), a TSP-style order search
(nearest-neighbour order refined by 2-opt on the simulated elapsed time),
and an exact search over all orders for small requests: depth first over
the sorted ids, pruned by the incumbent's last slot, with the tie rule of
plain enumeration (the lexicographically smallest order wins). The search
and the 2-opt score orders by their slot arithmetic alone; a full
``RetrievalPlan`` is built once, for the order returned.

``simulate_order`` schedules a fixed order, each object at its earliest
slot after the read before it; every planner builds its plan with it.
``after_index`` is the whole aired read from a cold start: the next index
segment, then a fixed order handed to ``simulate_order`` behind that
index read. The engine reads every published object this way.

The engine makes an aired read per query, so these two build their
``PlannedRead`` and ``RetrievalPlan`` tuples with ``tuple.__new__``, the
fields in declaration order: the ``__new__`` that ``NamedTuple`` generates
is one interpreted call per tuple, and these are the same tuples without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import air_schedule
from .air_schedule import BroadcastProgram


class RefusedSize(Exception):
    """Too many objects for exhaustive search (factorial guard)."""


@dataclass(frozen=True)
class CostModel:
    """Timing and energy constants for one client radio."""

    switch_slots: int = 1
    e_active: float = 1.0
    e_doze: float = 0.05
    e_switch: float = 0.5

    def __post_init__(self) -> None:
        if self.switch_slots < 1:
            raise ValueError("channel switching consumes at least one slot")
        if min(self.e_active, self.e_doze, self.e_switch) < 0:
            raise ValueError("energies must be nonnegative")
        if not self.e_doze < self.e_active:
            raise ValueError("dozing must cost less than active listening")


class PlannedRead(NamedTuple):
    object_id: str
    channel: int
    slot: int  # absolute


class RetrievalPlan(NamedTuple):
    reads: tuple[PlannedRead, ...]
    start_slot: int
    total_slots: int  # response time: slots from start through last read
    switches: int
    active_slots: int


# A PlannedRead or RetrievalPlan without NamedTuple's interpreted __new__:
# _new(Cls, (fields in declaration order)) builds the same tuple.
_new = tuple.__new__


@dataclass(frozen=True)
class RetrievalRequest:
    desired: frozenset[str]
    program: BroadcastProgram
    start: int  # first absolute slot available for retrieval

    def __post_init__(self) -> None:
        missing = [o for o in self.desired if o not in self.program.directory]
        if missing:
            raise ValueError(f"not in program: {sorted(missing)}")
        if not self.desired:
            raise ValueError("desired set is empty")


def _earliest_read(
    channel: int,
    cycle_slot: int,
    length: int,
    prev_slot: int,
    prev_channel: int | None,
    sigma: int,
) -> tuple[int, bool]:
    """Earliest absolute slot at which the object at (channel, cycle_slot) can
    be read after a read at ``prev_slot`` on ``prev_channel``, and whether
    reaching it switches channels.

    ``prev_channel`` None means nothing has been read yet: ``prev_slot`` is
    then the slot before the first one available, and no switch is paid.
    """
    if prev_channel is None or channel == prev_channel:
        earliest, switched = prev_slot + 1, False
    else:
        earliest, switched = prev_slot + 1 + sigma, True
    return earliest + (cycle_slot - earliest) % length, switched


def simulate_order(
    order: list[str], program: BroadcastProgram, start: int, cost: CostModel,
    first: PlannedRead | None = None,
) -> RetrievalPlan:
    """Schedule a fixed retrieval order from ``start``: read ``first``, if
    given, and then each object of ``order`` at its earliest slot after the
    read before it. An empty ``order`` raises ``ValueError``.

    The plan runs from ``start`` through the last slot walked. Its reads and
    the plan itself are built with ``tuple.__new__``, not the ``NamedTuple``
    constructors: the engine makes one plan per aired read, and the
    generated ``__new__`` is one interpreted call per tuple.
    """
    if not order:
        raise ValueError("order is empty")
    directory = program.directory
    length, sigma = program.cycle_len_slots, cost.switch_slots
    reads: list[PlannedRead] = []
    switches = 0
    slot, prev_channel = start - 1, None
    if first is not None:
        reads.append(first)
        slot, prev_channel = first.slot, first.channel
    for obj in order:
        channel, cycle_slot = directory[obj]
        slot, switched = _earliest_read(
            channel, cycle_slot, length, slot, prev_channel, sigma
        )
        switches += switched
        reads.append(_new(PlannedRead, (obj, channel, slot)))
        prev_channel = channel
    return _new(RetrievalPlan, (tuple(reads), start, slot - start + 1, switches, len(reads)))


def after_index(
    order: list[str], program: BroadcastProgram, now: int, cost: CostModel
) -> RetrievalPlan:
    """Read the next index segment from ``now``, then ``order``, each object
    at its earliest slot after the read before it. An empty ``order``
    raises ``ValueError``.

    A dedicated index channel is channel 0. Otherwise every data channel
    carries the index slots at the same positions, and the index is read on
    the first object's channel.
    """
    if not order:
        raise ValueError("order is empty")
    channel = 0 if program.dedicated_index_channel else program.directory[order[0]][0]
    index_read = _new(PlannedRead, (
        air_schedule.INDEX, channel, air_schedule.next_index_read_end(program, now)
    ))
    return simulate_order(order, program, now, cost, index_read)


def row_scan(req: RetrievalRequest, cost: CostModel) -> RetrievalPlan:
    """One pass over each channel that carries desired objects.

    Channels are visited in ascending index order; within a pass the
    channel's desired objects are taken in the order they come around, so
    each channel needs at most one cycle and the switch count is exactly
    (interesting channels - 1).
    """
    program, length = req.program, req.program.cycle_len_slots
    by_channel: dict[int, list[tuple[int, str]]] = {}
    for obj in sorted(req.desired):
        channel, cycle_slot = program.directory[obj]
        by_channel.setdefault(channel, []).append((cycle_slot, obj))

    order: list[str] = []
    tune_in = req.start
    for ch in sorted(by_channel):
        in_pass = sorted(by_channel[ch], key=lambda e: ((e[0] - tune_in) % length, e[1]))
        order.extend(obj for _, obj in in_pass)
        last, _ = _earliest_read(ch, in_pass[-1][0], length, tune_in - 1, None, 0)
        tune_in = last + 1 + cost.switch_slots
    return simulate_order(order, program, req.start, cost)


def next_object_access(req: RetrievalRequest, cost: CostModel) -> RetrievalPlan:
    """Greedy: always fetch the remaining object with the earliest feasible slot."""
    program, length = req.program, req.program.cycle_len_slots
    remaining = sorted(req.desired)
    order: list[str] = []
    prev_slot, prev_channel = req.start - 1, None
    while remaining:
        best: tuple[int, bool, int, str] | None = None
        for obj in remaining:
            channel, cycle_slot = program.directory[obj]
            slot, switched = _earliest_read(
                channel, cycle_slot, length, prev_slot, prev_channel,
                cost.switch_slots,
            )
            key = (slot, switched, channel, obj)
            if best is None or key < best:
                best = key
        slot, _, channel, obj = best
        order.append(obj)
        remaining.remove(obj)
        prev_slot, prev_channel = slot, channel
    return simulate_order(order, program, req.start, cost)


def _last_slot(
    reads: list[tuple[int, int]], length: int, prev_slot: int,
    prev_channel: int | None, sigma: int,
) -> int:
    """Slot of the last read when ``reads`` (channel, cycle slot) follow a read
    at ``prev_slot`` on ``prev_channel``, each at its earliest slot."""
    for channel, cycle_slot in reads:
        prev_slot, _ = _earliest_read(
            channel, cycle_slot, length, prev_slot, prev_channel, sigma
        )
        prev_channel = channel
    return prev_slot


def tsp_order(
    req: RetrievalRequest, cost: CostModel, max_iterations: int = 10_000
) -> RetrievalPlan:
    """Nearest-neighbour order (the greedy plan) improved by 2-opt reversals.

    Tour cost is the simulated elapsed slot count of executing the order
    under the conflict rules; the search is deterministic and stops at a
    local optimum or after ``max_iterations`` candidate reversals. A
    candidate is scored by its last slot alone, walking only the reversed
    segment and the suffix from the schedule of the unchanged prefix; the
    plan is built once, for the winning order.
    """
    program, length, sigma = req.program, req.program.cycle_len_slots, cost.switch_slots
    order = [r.object_id for r in next_object_access(req, cost).reads]
    where = [program.directory[obj] for obj in order]
    best_last = _last_slot(where, length, req.start - 1, None, sigma)
    n = len(order)
    iterations = 0
    improved = True
    while improved and iterations < max_iterations:
        improved = False
        # the schedule of where[:i], which no reversal at i or later changes
        prefix_slot, prefix_channel = req.start - 1, None
        for i in range(n - 1):
            for j in range(i + 1, n):
                iterations += 1
                candidate = where[i : j + 1][::-1] + where[j + 1 :]
                last = _last_slot(candidate, length, prefix_slot, prefix_channel, sigma)
                if last < best_last:
                    order[i : j + 1] = order[i : j + 1][::-1]
                    where[i:] = candidate
                    best_last = last
                    improved = True
                if iterations >= max_iterations:
                    break
            if iterations >= max_iterations:
                break
            channel, cycle_slot = where[i]
            prefix_slot, _ = _earliest_read(
                channel, cycle_slot, length, prefix_slot, prefix_channel, sigma
            )
            prefix_channel = channel
    return simulate_order(order, program, req.start, cost)


def brute_force(
    req: RetrievalRequest, cost: CostModel, max_objects: int = 8
) -> RetrievalPlan:
    """Exact optimum over all retrieval orders (small requests only).

    Minimizes response slots, then switch count; among remaining ties the
    lexicographically smallest object order wins. The orders are searched
    depth first over the sorted ids, so they come in lexicographic order
    and an incumbent is replaced only by a strictly better one. Each shared
    prefix is scheduled once, and a prefix is cut off as soon as its
    remaining objects, one slot each at the least, cannot finish by the
    incumbent's last slot. The search is exact: the cut prefixes hold no
    order that would have replaced the incumbent.
    """
    n = len(req.desired)
    if n > max_objects:
        raise RefusedSize(f"{n} objects > limit {max_objects}")
    program, length, sigma = req.program, req.program.cycle_len_slots, cost.switch_slots
    ids = sorted(req.desired)
    where = [program.directory[obj] for obj in ids]
    unused = [True] * n
    prefix: list[int] = []
    best_key: tuple[int, int] | None = None
    best_order: list[int] = []

    def extend(prev_slot: int, prev_channel: int | None, switches: int) -> None:
        nonlocal best_key, best_order
        remaining = n - len(prefix) - 1  # objects left after the next read
        for i in range(n):
            if not unused[i]:
                continue
            channel, cycle_slot = where[i]
            slot, switched = _earliest_read(
                channel, cycle_slot, length, prev_slot, prev_channel, sigma
            )
            if remaining == 0:
                key = (slot, switches + switched)
                if best_key is None or key < best_key:
                    best_key, best_order = key, prefix + [i]
            elif best_key is None or slot + remaining <= best_key[0]:
                unused[i] = False
                prefix.append(i)
                extend(slot, channel, switches + switched)
                prefix.pop()
                unused[i] = True

    extend(req.start - 1, None, 0)
    return simulate_order([ids[i] for i in best_order], program, req.start, cost)


def plan_as_dict(plan: RetrievalPlan) -> dict:
    """JSON-ready trace of a plan, for dumping into run artifacts."""
    return {
        "start_slot": plan.start_slot,
        "total_slots": plan.total_slots,
        "switches": plan.switches,
        "active_slots": plan.active_slots,
        "reads": [
            {"object_id": r.object_id, "channel": r.channel, "slot": r.slot}
            for r in plan.reads
        ],
    }


def account(plan: RetrievalPlan, cost: CostModel) -> dict[str, float]:
    """Response time and energy for a plan: listen, doze, and switch terms."""
    doze = plan.total_slots - plan.active_slots - cost.switch_slots * plan.switches
    energy = (
        plan.active_slots * cost.e_active
        + doze * cost.e_doze
        + plan.switches * cost.e_switch
    )
    return {
        "response_slots": plan.total_slots,
        "active_slots": plan.active_slots,
        "doze_slots": doze,
        "switches": plan.switches,
        "energy": energy,
    }
