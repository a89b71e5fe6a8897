"""Published vs on-demand partitioning, bandwidth split, and batching.

The cell serves n objects of uniform size S. Published objects are
broadcast every cycle over bandwidth b_b; the rest are served on demand
over bandwidth b_d as an M/M/1-style queue with service rate
mu_d = b_d / (S + R) (R being the request size). Expected access time is
the arrival-rate-weighted sum of half the cycle time for published objects
and 1 / (mu_d - lambda_d) for on-demand ones; the split of the total
bandwidth between the two groups is optimized numerically, and the
partition itself is grown greedily from the most demanded object while the
optimized access time stays under a threshold.

The planner's input is a rate map, object id to arrival rate, whose
iteration order is the caller's and fixes the order in which the total
rate is summed. A plan is one pass over the objects plus a golden-section
search per prefix: the rates are listed once in ``move_order``, each
prefix's group rates are sums over that list, and
``optimize_bandwidth_split`` takes the prefix's length and its two group
rates and evaluates its objective inline, with no call or allocation per
step.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

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
        if self.total_bandwidth <= 0:
            raise ValueError("total bandwidth must be > 0")
        if self.request_size < 0:
            raise ValueError("request size must be >= 0")


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


def _check(rates: Mapping[str, float], size: float = 1.0) -> None:
    """Refuse a rate that is not finite and >= 0, or a size that is not > 0."""
    if not size > 0:
        raise ValueError("object size must be > 0")
    if not all(0 <= rate < math.inf for rate in rates.values()):
        raise ValueError("arrival rate must be finite and >= 0")


def _access_time(
    k: int,
    pub_rate: float,
    od_rate: float,
    b_b: float,
    b_d: float,
    size: float,
    request_size: float,
    total_rate: float,
) -> AccessTime:
    t_broadcast = (k * size) / (2.0 * b_b) if b_b > 0 else math.inf
    mu_d = b_d / (size + request_size)
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
    partition: Partition, rates: Mapping[str, float], params: PlanParams, size: float = 1.0
) -> AccessTime:
    """Expected access time of a partition at its recorded bandwidth split."""
    _check(rates, size)
    pub_rate = sum(rates[o] for o in partition.published)
    od_rate = sum(rates[o] for o in partition.on_demand)
    total = sum(rates.values())
    return _access_time(
        len(partition.published), pub_rate, od_rate,
        partition.b_b, partition.b_d, size, params.request_size, total,
    )


def optimize_bandwidth_split(
    k: int, pub_rate: float, od_rate: float, params: PlanParams, size: float = 1.0
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
    if not size > 0:
        raise ValueError("object size must be > 0")
    if not (k >= 0 and pub_rate >= 0 and od_rate >= 0):
        raise ValueError("published count and group rates must be >= 0")
    total_b = params.total_bandwidth
    per_request = size + params.request_size
    if od_rate == 0:
        return (total_b, 0.0)
    if pub_rate == 0:
        if total_b / per_request <= od_rate:
            raise Unstable("no stable split: on-demand demand exceeds capacity")
        return (0.0, total_b)

    upper = total_b - od_rate * per_request
    if upper <= 0:
        raise Unstable("no stable split: on-demand demand exceeds capacity")
    cycle = k * size
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


def move_order(rates: Mapping[str, float]) -> list[str]:
    """Objects by descending arrival rate, ties by ascending id."""
    _check(rates)
    # a reversed sort keeps equal rates in their ascending id order
    return sorted(sorted(rates), key=rates.__getitem__, reverse=True)


def partition_objects(
    rates: Mapping[str, float], params: PlanParams, size: float = 1.0
) -> PartitionResult:
    """Grow the published set greedily while the threshold holds.

    Starting from all-on-demand, the most demanded remaining object is moved
    to the published group and the bandwidth split re-optimized; the loop
    stops at the first configuration whose optimized access time exceeds the
    threshold (or is unstable) and returns the last satisfying one. If even
    the initial configuration violates the threshold, it is returned flagged
    infeasible.

    All objects share one ``size``. The rates are listed once in move
    order. Prefix k sums the first k of them and the rest left to right, the
    same additions in the same order as ``expected_access_time`` makes.
    ``move_order`` refuses a bad rate, and the first split a bad size.
    """
    if not rates:
        raise ValueError("no rates given")
    order = move_order(rates)
    listed = [rates[o] for o in order]
    total, total_b = sum(rates.values()), params.total_bandwidth
    kept = None  # the last prefix that holds: (k, b_b, b_d, access)
    for k in range(len(order) + 1):
        pub_rate, od_rate = sum(listed[:k]), sum(listed[k:])
        try:
            b_b, b_d = optimize_bandwidth_split(k, pub_rate, od_rate, params, size)
        except Unstable:
            b_b, b_d = 0.0, total_b
            mu_d = total_b / (size + params.request_size)
            access = AccessTime(math.inf, math.inf, math.inf, math.inf, mu_d, od_rate)
        else:
            access = _access_time(
                k, pub_rate, od_rate, b_b, b_d, size, params.request_size, total
            )
        if not (math.isfinite(access.raw) and access.raw <= params.threshold):
            break
        kept = (k, b_b, b_d, access)
    # infeasible if even prefix 0 fails: that prefix is returned, flagged
    k, b_b, b_d, access = kept or (k, b_b, b_d, access)
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
