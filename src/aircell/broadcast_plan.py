"""Published vs on-demand partitioning, bandwidth split, and batching.

The cell serves n objects of unit size: the broadcast program airs each
published object in one channel-slot per cycle, so k published objects make
a cycle of k units. Published objects are broadcast every cycle over
bandwidth b_b; the rest are served on demand over bandwidth b_d as an
M/M/1-style queue with service rate mu_d = b_d / (1 + R) (R being the
request size). Expected access time is the arrival-rate-weighted sum of
half the cycle time, k / (2 b_b), for published objects and
1 / (mu_d - lambda_d) for on-demand ones; the split of the total bandwidth
between the two groups is optimized numerically, and the partition itself
is grown greedily from the most demanded object while the optimized access
time stays under a threshold.

The planner's input is a ``Catalog`` of the cell's object ids, listed and
sorted once per run, and a float column of their arrival rates in the
catalog's order, which fixes the order in which the total rate is summed;
every sum of rates adds left to right from 0, as ``sum()`` does before
CPython 3.12 (whose ``sum()`` is compensated). A plan costs one sort of the
objects asked for and O(n) array work. ``move_order`` lists the rates
once; one running sum of that list gives every prefix's published rate
exactly, and one from the other end gives every on-demand rate, which
differs from the left-to-right sum by at most a bound relative to it and so
is known to an interval. ``_screen_prefixes`` decides every prefix at once
from the closed-form optimum of the split, taking for each of its tests the
end of the interval that is worse for it. A suffix whose sum is 0 holds
only zeros, and its prefix is decided exactly. The split search,
``optimize_bandwidth_split``, runs, on the suffix folded left to right,
only for the prefix the plan returns and for the few the screen leaves
open. The search takes the prefix's length and its two group rates and
evaluates its objective inline, with no call or allocation per step.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import NamedTuple

import numpy as np

# 1/phi, the golden-section search's step ratio
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class Unstable(Exception):
    """On-demand arrivals meet or exceed the service rate."""


@dataclass(frozen=True)
class PlanParams:
    total_bandwidth: float
    request_size: float
    threshold: float = math.inf  # access-time cap for the partition loop

    def __post_init__(self) -> None:
        if not 0 < self.total_bandwidth < math.inf:
            raise ValueError("total bandwidth must be finite and > 0")
        if not 0 <= self.request_size < math.inf:
            raise ValueError("request size must be finite and >= 0")
        if math.isnan(self.threshold):
            raise ValueError("threshold must not be NaN")


@dataclass(frozen=True)
class Partition:
    published: tuple[str, ...]  # in move (descending demand) order
    on_demand: tuple[str, ...]
    b_b: float
    b_d: float


@dataclass(frozen=True)
class AccessTime:
    raw: float  # arrival-rate-weighted sum, the optimized quantity
    normalized: float  # raw / total arrival rate, the mean per request
    t_broadcast: float
    t_on_demand: float
    mu_d: float
    lambda_d: float


@dataclass(frozen=True)
class PartitionResult:
    partition: Partition
    access: AccessTime
    feasible: bool


class Catalog(NamedTuple):
    """A cell's object ids, listed once for every plan of the cell.

    ``ids`` holds them in the caller's order, the order of every rate
    column planned against the catalog, in an object array: a numpy ``'U'``
    array would drop an id's trailing NULs. ``position`` maps each id to its
    place in that order, and ``ascending`` holds the positions that list the
    ids in ascending id order.
    """

    ids: np.ndarray
    position: dict[str, int]
    ascending: np.ndarray

    @classmethod
    def of(cls, ids: Iterable[str]) -> Catalog:
        """The catalog of ``ids``, in their order; refuse a repeated id."""
        listed = list(ids)
        position = dict(zip(listed, range(len(listed))))
        if len(position) != len(listed):
            raise ValueError("object ids must be distinct")
        ascending = sorted(range(len(listed)), key=listed.__getitem__)
        return cls(np.array(listed, dtype=object), position, np.array(ascending, dtype=np.intp))


def _check(catalog: Catalog, rates: np.ndarray) -> float:
    """The total rate, added left to right from 0 in the column's order.
    Refuse an empty column, one that is not one rate per catalogued object,
    a rate that is not finite and >= 0, and a total that is not finite."""
    if not len(rates):
        raise ValueError("no rates given")
    if rates.shape != catalog.ids.shape:
        raise ValueError("rates must hold one rate per catalogued object")
    if not ((rates >= 0) & (rates < math.inf)).all():
        raise ValueError("arrival rate must be finite and >= 0")
    with np.errstate(over="ignore"):  # a sum past float max is inf, as in Python
        total = np.add.accumulate(np.concatenate(([0.0], rates)))[-1].item()
    if total == math.inf:
        raise ValueError("total arrival rate must be finite")
    return total


def _access_time(
    k: int,
    pub_rate: float,
    od_rate: float,
    b_b: float,
    b_d: float,
    request_size: float,
    total_rate: float,
) -> AccessTime:
    t_broadcast = k / (2.0 * b_b) if b_b > 0 else math.inf
    mu_d = b_d / (1.0 + request_size)
    if od_rate > 0 and mu_d <= od_rate:
        raise Unstable(f"mu_d={mu_d} <= lambda_d={od_rate}")
    t_on_demand = 1.0 / (mu_d - od_rate) if mu_d > od_rate else math.inf
    raw = 0.0
    if pub_rate > 0:
        raw += pub_rate * t_broadcast
    if od_rate > 0:
        raw += od_rate * t_on_demand
    normalized = raw / total_rate if total_rate > 0 else 0.0
    return AccessTime(raw, normalized, t_broadcast, t_on_demand, mu_d, od_rate)


def expected_access_time(
    partition: Partition, catalog: Catalog, rates: np.ndarray, params: PlanParams
) -> AccessTime:
    """Expected access time of a partition at its recorded bandwidth split,
    with each group's rate added left to right in the partition's order."""
    total = _check(catalog, rates)
    listed, position = rates.tolist(), catalog.position
    pub_rate = reduce(add, (listed[position[o]] for o in partition.published), 0)
    od_rate = reduce(add, (listed[position[o]] for o in partition.on_demand), 0)
    return _access_time(
        len(partition.published), pub_rate, od_rate,
        partition.b_b, partition.b_d, params.request_size, total,
    )


def optimize_bandwidth_split(
    k: int, pub_rate: float, od_rate: float, params: PlanParams
) -> tuple[float, float]:
    """Bandwidth split (b_b, b_d) minimizing the expected access time of k
    published objects with the given group arrival rates.

    The objective is convex on the stable interval, so a golden-section
    search (tolerance 1e-6 of the total bandwidth) suffices. An empty group
    has a zero rate, so the rates alone pick the degenerate cases: a
    demand-free on-demand group yields (B, 0) and a demand-free published
    group (0, B). The search minimizes ``_access_time(...).raw`` with the
    invariants hoisted out; it must keep that function's float operations
    and their order, or the split moves in the last bits.
    """
    if not (k >= 0 and pub_rate >= 0 and od_rate >= 0):
        raise ValueError("published count and group rates must be >= 0")
    total_b = params.total_bandwidth
    per_request = 1.0 + params.request_size
    if od_rate == 0:
        return (total_b, 0.0)
    if pub_rate == 0:
        if total_b / per_request <= od_rate:
            raise Unstable("no stable split: on-demand demand exceeds capacity")
        return (0.0, total_b)

    upper = total_b - od_rate * per_request
    if upper <= 0:
        raise Unstable("no stable split: on-demand demand exceeds capacity")
    cycle = float(k)  # k unit-size objects: the float that k * size gave at size 1.0
    tol = 1e-6 * total_b
    if upper <= 2 * tol:
        return (upper / 2.0, total_b - upper / 2.0)

    # Golden-section search on [tol, upper - tol] down to a bracket of tol,
    # the objective written out: c < d are the inner points and x the one
    # evaluated next, first c, then d, then the one each step moves.
    a, b = tol, upper - tol
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    x, at_c, fd = c, True, None
    while True:
        mu_d = (total_b - x) / per_request
        if mu_d <= od_rate:
            raise Unstable(f"mu_d={mu_d} <= lambda_d={od_rate}")
        fx = pub_rate * (cycle / (2.0 * x)) + od_rate * (1.0 / (mu_d - od_rate))
        if at_c:
            fc = fx
        else:
            fd = fx
        if fd is None:
            x, at_c = d, False
        elif not (b - a) > tol:
            break
        elif fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            x, at_c = c, True
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            x, at_c = d, False
    b_b = (a + b) / 2.0
    return (b_b, total_b - b_b)


# The screen's relative margin. Both sides of each of its comparisons are
# f(x) = A/x + C/(U - x) evaluated in floats at points at least tol = 1e-6 B
# inside (0, U), with A, C and tol normal floats. Each operation rounds by
# 2**-53 relative except U - x (in the search, (B - x) / (1 + R) - lambda_d),
# whose cancellation costs about ulp(B) / tol ~ 2.2e-10 relative. Where f is
# flat to within that error a search step may keep the wrong side of its
# bracket; by convexity and the golden ratio of the steps each such step
# costs f at most about 3.2 times the error, and a search makes about 30
# steps. All told that is below 1e-7, so 1e-6 leaves a tenfold margin. The
# screen knows lambda_d only to an interval; that costs nothing from this
# budget, since each test is made at the end of the interval that is worse
# for it.
_SCREEN_MARGIN = 1e-6
_NORMAL = sys.float_info.min  # the least normal float
# The screen's on-demand rates are summed right to left, the search's left
# to right. A sum of m nonnegative floats is within gamma_(m-1) S of the
# exact sum S in any order, gamma_j = j u / (1 - j u) with u = 2**-53
# (Higham, Accuracy and Stability of Numerical Algorithms, section 4.2), so
# the two orders differ by at most 2 gamma_(m-1) S. For a suffix of at most
# n + 1 terms, od * (1 -+ 4 (n + 2) u) brackets the left-to-right sum with room
# for the rounding of those two products: additions are exact where a sum
# is subnormal, so a subnormal od is the left-to-right sum itself.
_UNIT_ROUNDOFF = 2.0**-53


def _screen_prefixes(
    pub: np.ndarray, od: np.ndarray, params: PlanParams
) -> tuple[np.ndarray, np.ndarray]:
    """Whether each prefix holds the threshold, and whether it fails it,
    from its published rate ``pub[k]`` and its on-demand rate ``od[k]``
    summed right to left; a prefix that does neither is left to the search.

    With U = B - lambda_d (1 + R), A = lambda_b k / 2 and C = lambda_d (1 + R),
    ``optimize_bandwidth_split`` minimizes f(x) = A/x + C/(U - x) over the
    broadcast bandwidth x. Its minimum is f* = (sqrt A + sqrt C)^2 / U, at
    x* = U sqrt A / (sqrt A + sqrt C). The search's lambda_d, the suffix
    folded left to right, lies in [lo, hi] around od (see ``_UNIT_ROUNDOFF``);
    as lambda_d rises, f rises at every x, f* rises and x* falls.

    - Fails: f*(lo) exceeds the threshold. No split does better than f* at
      lambda_d, which is at least f*(lo).
    - Holds: f at hi is under the threshold at both ends of
      [x*(hi) - 2 tol, x*(lo) + 2 tol]. The search's last bracket is at most
      tol wide and holds x* at lambda_d, which lies in [x*(hi), x*(lo)], so
      the split it returns is within tol / 2 of that x*. There f is at most
      f at hi, which is convex and so at most its value at one end.

    Both comparisons keep the margin ``_SCREEN_MARGIN``. The search's
    degenerate cases (an empty group, a stable interval of 2 tol or less at
    hi), an x* within 3 tol of either end, a subnormal A, C or tol, and a
    non-finite value are left to the search. The closed form is the search's
    objective solved: a change to the one must change the other.

    A suffix whose od is 0 holds only rates of 0. Its left-to-right fold is
    0.0 and the search returns (B, 0), so the prefix's access time is the
    one ``_access_time`` gives at that split, 0.0 + lambda_b k / (2 B), and
    it is decided here in the same operations, exactly.
    """
    n = len(pub) - 1
    total_b, threshold = params.total_bandwidth, params.threshold
    per_request = 1.0 + params.request_size
    tol = 1e-6 * total_b
    k = np.arange(n + 1, dtype=float)
    spread = 4.0 * (n + 2) * _UNIT_ROUNDOFF
    # an overflow, a division by 0 or a NaN makes a value that is not
    # finite, and a prefix with one is left to the search or, in the zero
    # tail, fails
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        raw = np.where(pub > 0, 0.0 + pub * (k / (2.0 * total_b)), 0.0)
        zero_holds = np.isfinite(raw) & (raw <= threshold)
        a = pub * k / 2.0
        c_lo = od * (1.0 - spread) * per_request
        c_hi = od * (1.0 + spread) * per_request
        upper_lo, upper_hi = total_b - c_lo, total_b - c_hi
        root_a = np.sqrt(a)
        roots_lo, roots_hi = root_a + np.sqrt(c_lo), root_a + np.sqrt(c_hi)
        least = roots_lo * roots_lo / upper_lo
        x_lo, x_hi = upper_lo * (root_a / roots_lo), upper_hi * (root_a / roots_hi)
        left, right = x_hi - 2 * tol, x_lo + 2 * tol
        worst = np.maximum(
            a / left + c_hi / (upper_hi - left), a / right + c_hi / (upper_hi - right)
        )
        screened = (
            (a >= _NORMAL) & (c_lo >= _NORMAL) & (tol >= _NORMAL)
            & (upper_hi > 2 * tol) & np.isfinite(least)
        )
        fails = screened & (least * (1.0 - _SCREEN_MARGIN) > threshold)
        holds = (
            screened & (3 * tol <= x_hi) & (x_lo <= upper_hi - 3 * tol)
            & (worst * (1.0 + _SCREEN_MARGIN) < threshold)
        )
    zero = od == 0
    return np.where(zero, zero_holds, holds), np.where(zero, ~zero_holds, fails)


def _suffix_rate(column: np.ndarray, k: int) -> float:
    """Prefix k's on-demand rate: ``column[k:]`` added left to right, the
    fold ``expected_access_time`` makes."""
    with np.errstate(over="ignore"):  # a sum past float max is inf, as in Python
        return np.add.accumulate(column[k:])[-1].item()


def _plan_prefix(
    k: int, pub_rate: float, od_rate: float, params: PlanParams, total_rate: float
) -> tuple[float, float, AccessTime]:
    """Prefix k's optimized split and its access time; an unstable prefix
    gets the split (0, B) and an infinite access time."""
    try:
        b_b, b_d = optimize_bandwidth_split(k, pub_rate, od_rate, params)
    except Unstable:
        total_b = params.total_bandwidth
        mu_d = total_b / (1.0 + params.request_size)
        return 0.0, total_b, AccessTime(math.inf, math.inf, math.inf, math.inf, mu_d, od_rate)
    access = _access_time(k, pub_rate, od_rate, b_b, b_d, params.request_size, total_rate)
    return b_b, b_d, access


def move_order(catalog: Catalog, rates: np.ndarray) -> np.ndarray:
    """The objects' positions by descending arrival rate, ties by ascending
    id. The rates are taken as given: ``partition_objects`` checks them
    first. Only the objects asked for are sorted: the rest, the rates of 0,
    follow in the catalog's ascending id order."""
    ascending = catalog.ascending
    asked = rates[ascending] > 0
    by_id = ascending[asked]
    # a stable sort of the negated rates keeps equal rates in id order
    by_rate = by_id[np.argsort(-rates[by_id], kind="stable")]
    return np.concatenate((by_rate, ascending[~asked]))


def partition_objects(
    catalog: Catalog, rates: np.ndarray, params: PlanParams
) -> PartitionResult:
    """Grow the published set greedily while the threshold holds.

    ``rates`` is a float64 array: ``rates[i]`` is the arrival rate of
    ``catalog.ids[i]``. Starting from all-on-demand, the most demanded
    remaining object is moved to the published group and the bandwidth
    split re-optimized; the loop stops at the first configuration whose
    optimized access time exceeds the threshold (or is unstable) and
    returns the last satisfying one. If even the initial configuration
    violates the threshold, it is returned flagged infeasible.

    The rates are listed once in move order. Every prefix's published rate
    is one running sum of that list, the additions ``expected_access_time``
    makes, in its order; its on-demand rate is one running sum from the
    other end, known to an interval. ``_screen_prefixes`` decides every
    prefix at once from these, and the zero tail exactly. Only a prefix it
    leaves open before the first that fails, and the prefix returned, get
    their suffix folded left to right and planned by the search, so the
    result is the one that planning every prefix gives. A plan costs the
    sort of the objects asked for and O(n) array work. ``_check`` refuses a
    bad column, or a total that is not finite.
    """
    total = _check(catalog, rates)
    order = move_order(catalog, rates)
    # the rates in move order between two 0.0s: the first starts the
    # prefixes' running sum from 0, and the last is the empty suffix's rate,
    # which turns a fold of -0.0 rates alone into the 0.0 a fold from 0 gives
    padded = np.concatenate(([0.0], rates[order], [0.0]))
    column = padded[1:]
    with np.errstate(over="ignore"):  # a sum past float max is inf, and left open
        pub = np.add.accumulate(padded[:-1])
        od = np.add.accumulate(column[::-1])[::-1]
    holds, fails = _screen_prefixes(pub, od, params)
    stop = len(order) + 1  # the first prefix that fails
    for k in np.flatnonzero(~holds).tolist():
        if not fails[k]:
            raw = _plan_prefix(k, pub[k].item(), _suffix_rate(column, k), params, total)[2].raw
            if math.isfinite(raw) and raw <= params.threshold:
                continue
        stop = k
        break
    # infeasible if even prefix 0 fails: that prefix is returned, flagged
    k = max(stop - 1, 0)
    b_b, b_d, access = _plan_prefix(k, pub[k].item(), _suffix_rate(column, k), params, total)
    ids = catalog.ids[order].tolist()
    partition = Partition(tuple(ids[:k]), tuple(ids[k:]), b_b, b_d)
    return PartitionResult(partition, access, stop > 0)


class Multicast(NamedTuple):
    """One transmission that answers ``size`` same-object requests at
    ``response_time``. ``BatchingServer`` builds it with ``tuple.__new__``,
    skipping NamedTuple's interpreted constructor: the same tuple."""

    object_id: str
    response_time: float
    size: int  # the requests the one transmission answers

    @property
    def saved_transmissions(self) -> int:
        return self.size - 1


# _new(Multicast, (object_id, response_time, size)) builds a Multicast
_new = tuple.__new__


@dataclass
class BatchingServer:
    """Answer same-object requests inside one window with one multicast.

    A batch opens at the first request for an object and fires at
    first_arrival + window; a request arriving at or after that firing
    instant opens a new batch. With window 0 every request is answered
    individually at its arrival time. A request's response time is fixed
    when it joins its batch, so ``submit`` returns it; ``advance`` only
    sends the multicasts. An open batch is its response time and its
    request count, and a sealed one a ``Multicast``, built only when the
    batch is sealed or fired and with no call of the class.
    """

    window: float
    _open: dict[str, list] = field(default_factory=dict)  # [response_time, size]
    _ready: list[Multicast] = field(default_factory=list)

    def submit(self, object_id: str, t: float) -> float:
        """Add a request at ``t``; return its multicast's response time."""
        batch = self._open.get(object_id)
        if batch is not None:
            if t < batch[0]:
                batch[1] += 1
                return batch[0]
            # the window has closed; seal the old batch
            self._ready.append(_new(Multicast, (object_id, *batch)))
        response_time = t + self.window
        self._open[object_id] = [response_time, 1]
        return response_time

    def advance(self, now: float) -> list[Multicast]:
        """Fire every sealed batch, and every open one whose window has
        closed by ``now``. The multicasts come in no promised order (the
        sealed ones, then the open ones): their count and saved
        transmissions, all a caller reads, need none."""
        fired, self._ready = self._ready, []
        for object_id in [o for o, (response_time, _) in self._open.items()
                          if response_time <= now]:
            fired.append(_new(Multicast, (object_id, *self._open.pop(object_id))))
        return fired
