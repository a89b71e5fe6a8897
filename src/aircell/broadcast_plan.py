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

The planner's input is a rate map, object id to arrival rate, whose
iteration order is the caller's and fixes the order in which the total
rate is summed; every sum of rates adds left to right from 0, as ``sum()``
does before CPython 3.12 (whose ``sum()`` is compensated). A plan is one
pass over the objects: the rates are listed once in ``move_order``, and
each prefix's group rates are sums over that list. ``_screen`` decides most
prefixes from the closed-form optimum of the split; the split search,
``optimize_bandwidth_split``, runs only for the prefix the plan returns and
for the few the screen cannot decide. The search takes the prefix's length
and its two group rates and evaluates its objective inline, with no call
or allocation per step.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import reduce
from operator import add

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


def _check(rates: Mapping[str, float]) -> None:
    """Refuse a rate that is not finite and >= 0."""
    if not all(0 <= rate < math.inf for rate in rates.values()):
        raise ValueError("arrival rate must be finite and >= 0")


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
    partition: Partition, rates: Mapping[str, float], params: PlanParams
) -> AccessTime:
    """Expected access time of a partition at its recorded bandwidth split."""
    _check(rates)
    pub_rate = reduce(add, (rates[o] for o in partition.published), 0)
    od_rate = reduce(add, (rates[o] for o in partition.on_demand), 0)
    total = reduce(add, rates.values(), 0)
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
# steps. All told that is below 1e-7, so 1e-6 leaves a tenfold margin.
_SCREEN_MARGIN = 1e-6
_NORMAL = sys.float_info.min  # the least normal float


def _screen(k: int, pub_rate: float, od_rate: float, params: PlanParams) -> bool | None:
    """Whether prefix k's optimized access time holds the threshold, decided
    from the split's closed form; None where the closed form cannot say.

    With U = B - lambda_d (1 + R), A = lambda_b k / 2 and C = lambda_d (1 + R),
    ``optimize_bandwidth_split`` minimizes f(x) = A/x + C/(U - x) over the
    broadcast bandwidth x. Its minimum is f* = (sqrt A + sqrt C)^2 / U, at
    x* = U sqrt A / (sqrt A + sqrt C). No split does better than f*, so the
    prefix fails when f* exceeds the threshold. The search's last bracket
    is at most tol wide and holds x*, so the split it returns is within
    tol / 2 of x*, where by convexity f is at most the larger of
    f(x* - 2 tol) and f(x* + 2 tol): the prefix holds when that is under the
    threshold. Both comparisons keep the margin ``_SCREEN_MARGIN``. The
    search's degenerate cases (an empty group, a stable interval of 2 tol or
    less), an x* within 3 tol of either end, a subnormal A, C or tol, and a
    non-finite value are left to the search. The closed form is the
    search's objective solved: a change to the one must change the other.
    """
    total_b = params.total_bandwidth
    per_request = 1.0 + params.request_size
    upper = total_b - od_rate * per_request
    tol = 1e-6 * total_b
    a, c = pub_rate * k / 2.0, od_rate * per_request
    if not (a >= _NORMAL and c >= _NORMAL and tol >= _NORMAL and upper > 2 * tol):
        return None
    root_a = math.sqrt(a)
    roots = root_a + math.sqrt(c)
    least = roots * roots / upper  # a product overflows to inf, where ** raises
    if not math.isfinite(least):
        return None
    if least * (1.0 - _SCREEN_MARGIN) > params.threshold:
        return False
    x = upper * (root_a / roots)
    if not 3 * tol <= x <= upper - 3 * tol:
        return None
    left, right = x - 2 * tol, x + 2 * tol
    worst = max(a / left + c / (upper - left), a / right + c / (upper - right))
    if worst * (1.0 + _SCREEN_MARGIN) < params.threshold:
        return True
    return None


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


def move_order(rates: Mapping[str, float]) -> list[str]:
    """Objects by descending arrival rate, ties by ascending id."""
    _check(rates)
    # a reversed sort keeps equal rates in their ascending id order
    return sorted(sorted(rates), key=rates.__getitem__, reverse=True)


def partition_objects(rates: Mapping[str, float], params: PlanParams) -> PartitionResult:
    """Grow the published set greedily while the threshold holds.

    Starting from all-on-demand, the most demanded remaining object is moved
    to the published group and the bandwidth split re-optimized; the loop
    stops at the first configuration whose optimized access time exceeds the
    threshold (or is unstable) and returns the last satisfying one. If even
    the initial configuration violates the threshold, it is returned flagged
    infeasible.

    The rates are listed once in move order. Prefix k's group rates are the
    first k of them as a running sum and the rest as a scan from k on, the
    additions ``expected_access_time`` makes, in its order. ``_screen``
    tells whether each prefix holds; only a prefix it leaves open is planned
    on the way, and the prefix returned is planned at the end, so the
    result is the one that planning every prefix gives. ``move_order``
    refuses a bad rate.
    """
    if not rates:
        raise ValueError("no rates given")
    order = move_order(rates)
    listed = [rates[o] for o in order]
    # the trailing 0.0 is the empty suffix's rate, and it turns a scan of
    # -0.0 rates alone into the 0.0 that a fold from 0 gives
    column = np.array(listed + [0.0])
    total = reduce(add, rates.values(), 0)
    pub_rate, kept = 0, None  # kept: the last prefix that holds (k, pub_rate, od_rate)
    for k in range(len(order) + 1):
        if k:
            pub_rate += listed[k - 1]
        od_rate = np.add.accumulate(column[k:])[-1].item()
        holds = _screen(k, pub_rate, od_rate, params)
        if holds is None:
            raw = _plan_prefix(k, pub_rate, od_rate, params, total)[2].raw
            holds = math.isfinite(raw) and raw <= params.threshold
        if not holds:
            break
        kept = (k, pub_rate, od_rate)
    # infeasible if even prefix 0 fails: that prefix is returned, flagged
    k, pub_rate, od_rate = kept or (k, pub_rate, od_rate)
    b_b, b_d, access = _plan_prefix(k, pub_rate, od_rate, params, total)
    partition = Partition(tuple(order[:k]), tuple(order[k:]), b_b, b_d)
    return PartitionResult(partition, access, kept is not None)


@dataclass(frozen=True)
class Multicast:
    object_id: str
    response_time: float
    size: int  # the requests the one transmission answers

    @property
    def saved_transmissions(self) -> int:
        return self.size - 1


@dataclass
class BatchingServer:
    """Answer same-object requests inside one window with one multicast.

    A batch opens at the first request for an object and fires at
    first_arrival + window; a request arriving at or after that firing
    instant opens a new batch. With window 0 every request is answered
    individually at its arrival time. A request's response time is fixed
    when it joins its batch, so ``submit`` returns it; ``advance`` only
    sends the multicasts. An open batch is its response time and its
    request count, and a sealed one a ``Multicast``.
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
            self._ready.append(Multicast(object_id, batch[0], batch[1]))
        response_time = t + self.window
        self._open[object_id] = [response_time, 1]
        return response_time

    def advance(self, now: float) -> list[Multicast]:
        """Fire every batch whose window has closed by ``now``."""
        fired, self._ready = self._ready, []
        for object_id in [o for o, (response_time, _) in self._open.items()
                          if response_time <= now]:
            response_time, size = self._open.pop(object_id)
            fired.append(Multicast(object_id, response_time, size))
        # the only equal keys are one object's sealed batch and its open one
        # at window 0, and the sort is stable: the sealed batch comes first
        fired.sort(key=lambda m: (m.response_time, m.object_id))
        return fired
