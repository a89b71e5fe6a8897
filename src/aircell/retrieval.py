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

That arithmetic is read from per-request gap tables. A read of object j
always falls on a slot congruent to its cycle slot ``cs_j``, and the
earliest read after a slot ``e`` is ``e + (cs - e) % L``, which moves by
exactly mL when ``e`` does. So the slots from a read of j to the earliest
read of i after it, ``gap[j][i]``, are the same in every cycle, and
``_gap_tables`` fills them once from ``cs_j`` with that expression inline;
the read switches channels exactly when i's channel is not j's. An
order's last slot is then its first read's slot plus the gaps along it,
an exact integer sum. The nearest-neighbour rule is stated once, in
``_gap_tables``: one scan of the tables gives the greedy order, which
Next Object Access plans, the 2-opt starts from, and the exhaustive
search takes as its first bound. The 2-opt scores each candidate
reversal in O(1) from prefix sums of the forward and the reversed gaps
along the current order. The exhaustive search cuts a prefix when its
last slot plus, for each unread object, the least gap into it from any
other object of the request exceeds the incumbent's last slot: every
unread object is entered from some other object, so the bound is
admissible, and since every gap is at least one slot it is never weaker
than one slot per unread object.

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
from itertools import accumulate
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
    """Greedy: always fetch the remaining object with the earliest feasible
    slot, ties to staying on the channel, then to the lower channel and id.
    The order is the one ``_gap_tables`` reads from its tables."""
    ids = sorted(req.desired)
    greedy = _gap_tables(ids, req, cost)[2]
    return simulate_order([ids[i] for i in greedy], req.program, req.start, cost)


def _gap_tables(
    objs: list[str], req: RetrievalRequest, cost: CostModel
) -> tuple[list[int], list[list[int]], list[int]]:
    """The gap tables of ``objs`` and the greedy order they imply.

    ``first[i]`` is the slot of the earliest read of ``objs[i]`` from
    ``req.start``, and ``gap[j][i]`` the slots from a read of ``objs[j]`` to
    the earliest read of ``objs[i]`` after it, in any cycle. Each entry is
    ``_earliest_read``'s ``e + (cs - e) % L``, computed inline; a read
    switches channels exactly when its channel differs from the last one.

    ``greedy`` is the nearest-neighbour order, as indices into ``objs``:
    from the start and then from each read, the unread object whose read
    comes first, by the key (slot, switched, channel, id). Every candidate
    is read after the same slot, so its gap stands for its slot, and one
    scan of the tables gives the order.
    """
    directory, length = req.program.directory, req.program.cycle_len_slots
    sigma, start = cost.switch_slots, req.start
    where = [directory[obj] for obj in objs]
    first = [start + (cs - start) % length for _, cs in where]
    gap: list[list[int]] = []
    for prev_channel, prev_slot in where:
        near, far = prev_slot + 1, prev_slot + 1 + sigma
        gap.append([
            1 + (cs - near) % length if channel == prev_channel
            else 1 + sigma + (cs - far) % length
            for channel, cs in where
        ])
    channels = [channel for channel, _ in where]
    # from the start no read switches: every candidate's switch term is alike
    gaps, at = first, None
    unread = list(range(len(objs)))
    greedy: list[int] = []
    while unread:
        i = min((gaps[i], channels[i] != at, channels[i], objs[i], i) for i in unread)[-1]
        greedy.append(i)
        unread.remove(i)
        gaps, at = gap[i], channels[i]
    return first, gap, greedy


def tsp_order(
    req: RetrievalRequest, cost: CostModel, max_iterations: int = 10_000
) -> RetrievalPlan:
    """Nearest-neighbour order (the greedy plan) improved by 2-opt reversals.

    Tour cost is the simulated elapsed slot count of executing the order
    under the conflict rules; the search is deterministic and stops at a
    local optimum or after ``max_iterations`` candidate reversals. It starts
    from the greedy order that ``_gap_tables`` reads off the tables it
    scores with, so the request's slot arithmetic is done once. A
    candidate is scored by its last slot alone, in O(1): reversing
    ``pos[i:j + 1]`` keeps the forward gaps of the prefix and the suffix
    and reads the segment's gaps backwards, each part one subtraction of
    prefix sums, rebuilt after each accepted reversal. The plan is built
    once, for the winning order.
    """
    ids = sorted(req.desired)
    first, gap, pos = _gap_tables(ids, req, cost)  # pos: the order, as indices
    n = len(ids)
    # fwd[t] and back[t]: the gaps along pos[:t + 1], forwards and reversed
    fwd = [0, *accumulate(gap[a][b] for a, b in zip(pos, pos[1:]))]
    back = [0, *accumulate(gap[b][a] for a, b in zip(pos, pos[1:]))]
    best_last = first[pos[0]] + fwd[-1]
    iterations = 0
    improved = True
    while improved and iterations < max_iterations:
        improved = False
        for i in range(n - 1):
            # the reversed segment is entered from the start or from pos[i - 1]
            if i:
                head, into = first[pos[0]] + fwd[i - 1], gap[pos[i - 1]]
            else:
                head, into = 0, first
            base, out = head - back[i], gap[pos[i]]
            for j in range(i + 1, n):
                iterations += 1
                last = base + into[pos[j]] + back[j]
                if j < n - 1:  # the suffix is entered from pos[i]
                    last += out[pos[j + 1]] + fwd[-1] - fwd[j + 1]
                if last < best_last:
                    pos[i : j + 1] = pos[i : j + 1][::-1]
                    fwd = [0, *accumulate(gap[a][b] for a, b in zip(pos, pos[1:]))]
                    back = [0, *accumulate(gap[b][a] for a, b in zip(pos, pos[1:]))]
                    base, out = head - back[i], gap[pos[i]]
                    best_last = last
                    improved = True
                if iterations >= max_iterations:
                    break
            if iterations >= max_iterations:
                break
    return simulate_order([ids[p] for p in pos], req.program, req.start, cost)


def brute_force(
    req: RetrievalRequest, cost: CostModel, max_objects: int = 8
) -> RetrievalPlan:
    """Exact optimum over all retrieval orders (small requests only).

    Minimizes response slots, then switch count; among remaining ties the
    lexicographically smallest object order wins. The orders are searched
    depth first over the sorted ids, so they come in lexicographic order
    and an incumbent is replaced only by a strictly better one. Each shared
    prefix is scheduled once, from the gap tables, and cut off as soon as
    its last slot plus the least gap into each unread object exceeds the
    incumbent's last slot. No order of a cut prefix finishes by that slot,
    and ties are still searched: the search is exact.

    The search starts from a key without an order: the greedy order's
    (last slot, switches) with one switch added. The greedy order does
    better than that, so the optimum is never cut, and the first order in
    lexicographic order to reach the optimum's key replaces the seed as it
    replaces any worse incumbent. The same plan is found, and it is cut
    by the greedy's last slot from the first prefix on.
    """
    n = len(req.desired)
    if n > max_objects:
        raise RefusedSize(f"{n} objects > limit {max_objects}")
    ids = sorted(req.desired)
    first, gap, greedy = _gap_tables(ids, req, cost)
    # switch[j][i]: whether reading ids[i] right after ids[j] switches channels
    channels = [req.program.directory[obj][0] for obj in ids]
    switch = [[channel != prev for channel in channels] for prev in channels]
    # the least gap into each object from another object of the request
    least_in = [min((gap[j][i] for j in range(n) if j != i), default=0) for i in range(n)]
    unused = [True] * n
    prefix: list[int] = []
    # the seed: the greedy order's (last slot, switches), one switch worse
    steps = list(zip(greedy, greedy[1:]))
    best_key = (
        first[greedy[0]] + sum(gap[a][b] for a, b in steps),
        sum(switch[a][b] for a, b in steps) + 1,
    )
    best_order: list[int] = []

    def extend(
        slot: int, switches: int, gaps: list[int], switched: list[bool], need: int
    ) -> None:
        """Every order that continues ``prefix``, whose last read is at
        ``slot`` and is followed by ``gaps`` and ``switched``; ``need`` is
        the least slots its unread objects take."""
        nonlocal best_key, best_order
        leaf = len(prefix) == n - 1
        for i in range(n):
            if not unused[i]:
                continue
            at, flips = slot + gaps[i], switches + switched[i]
            if leaf:
                if (at, flips) < best_key:
                    best_key, best_order = (at, flips), prefix + [i]
                continue
            rest = need - least_in[i]
            if at + rest <= best_key[0]:
                unused[i] = False
                prefix.append(i)
                extend(at, flips, gap[i], switch[i], rest)
                prefix.pop()
                unused[i] = True

    extend(0, 0, first, [False] * n, sum(least_in))
    return simulate_order([ids[i] for i in best_order], req.program, req.start, cost)


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
