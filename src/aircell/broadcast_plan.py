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

A plan is one pass over the objects plus a golden-section search per
prefix: the rates are listed once in move order, each prefix's group
rates are sums over that list, and the search evaluates a scalar
objective with no per-step allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class Unstable(Exception):
    """On-demand arrivals meet or exceed the service rate."""


@dataclass(frozen=True)
class ObjectDemand:
    object_id: str
    rate: float  # request arrivals per time unit
    size: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError("arrival rate must be finite and >= 0")
        if self.size <= 0:
            raise ValueError("object size must be > 0")


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


def _uniform_size(demands: list[ObjectDemand]) -> float:
    sizes = {d.size for d in demands}
    if len(sizes) != 1:
        raise ValueError("objects must share one size")
    return sizes.pop()


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
    partition: Partition, demands: list[ObjectDemand], params: PlanParams
) -> AccessTime:
    """Expected access time of a partition at its recorded bandwidth split."""
    size = _uniform_size(demands)
    by_id = {d.object_id: d.rate for d in demands}
    pub_rate = sum(by_id[o] for o in partition.published)
    od_rate = sum(by_id[o] for o in partition.on_demand)
    total = sum(d.rate for d in demands)
    return _access_time(
        len(partition.published), pub_rate, od_rate,
        partition.b_b, partition.b_d, size, params.request_size, total,
    )


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    """Minimize a unimodal f on [lo, hi] to within tol."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _split(
    k: int, pub_rate: float, od_rate: float, size: float, params: PlanParams
) -> tuple[float, float]:
    """Optimal (b_b, b_d) for k published objects with the given group rates.

    An empty group has a zero rate, so the rates alone pick the degenerate
    cases. The objective is ``_access_time(...).raw`` with the invariants
    hoisted out of the search; it must keep that function's float
    operations and their order, or the split moves in the last bits.
    """
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

    def objective(b_b: float) -> float:
        mu_d = (total_b - b_b) / per_request
        if mu_d <= od_rate:
            raise Unstable(f"mu_d={mu_d} <= lambda_d={od_rate}")
        return pub_rate * (cycle / (2.0 * b_b)) + od_rate * (1.0 / (mu_d - od_rate))

    tol = 1e-6 * total_b
    if upper <= 2 * tol:
        b_b = upper / 2.0
    else:
        b_b = _golden_section(objective, tol, upper - tol, tol)
    return (b_b, total_b - b_b)


def optimize_bandwidth_split(
    published: list[str],
    on_demand: list[str],
    demands: list[ObjectDemand],
    params: PlanParams,
) -> tuple[float, float]:
    """Bandwidth split minimizing the expected access time.

    The objective is convex on the stable interval, so a golden-section
    search (tolerance 1e-6 of the total bandwidth) suffices. Degenerate
    groups get the whole bandwidth: an empty or demand-free on-demand group
    yields (B, 0) and an empty published group yields (0, B).
    """
    if not published and not on_demand:
        raise ValueError("both groups empty")
    by_id = {d.object_id: d.rate for d in demands}
    size = _uniform_size(demands)
    pub_rate = sum(by_id[o] for o in published)
    od_rate = sum(by_id[o] for o in on_demand)
    return _split(len(published), pub_rate, od_rate, size, params)


def move_order(demands: list[ObjectDemand]) -> list[str]:
    """Objects by descending arrival rate, ties by ascending id."""
    return [d.object_id for d in sorted(demands, key=lambda d: (-d.rate, d.object_id))]


def partition_objects(
    demands: list[ObjectDemand], params: PlanParams
) -> PartitionResult:
    """Grow the published set greedily while the threshold holds.

    Starting from all-on-demand, the most demanded remaining object is moved
    to the published group and the bandwidth split re-optimized; the loop
    stops at the first configuration whose optimized access time exceeds the
    threshold (or is unstable) and returns the last satisfying one. If even
    the initial configuration violates the threshold, it is returned flagged
    infeasible.

    The rates are listed once in move order. Prefix k sums the first k of
    them and the rest left to right, the same additions in the same order
    as ``expected_access_time`` makes for that partition.
    """
    if not demands:
        raise ValueError("no demands given")
    order = move_order(demands)
    size = _uniform_size(demands)
    by_id = {d.object_id: d.rate for d in demands}
    rates = [by_id[o] for o in order]
    total = sum(d.rate for d in demands)

    def evaluate(k: int) -> tuple[float, float, AccessTime]:
        pub_rate, od_rate = sum(rates[:k]), sum(rates[k:])
        try:
            b_b, b_d = _split(k, pub_rate, od_rate, size, params)
        except Unstable:
            mu_d = params.total_bandwidth / (size + params.request_size)
            access = AccessTime(math.inf, math.inf, math.inf, math.inf, mu_d, od_rate)
            return 0.0, params.total_bandwidth, access
        access = _access_time(
            k, pub_rate, od_rate, b_b, b_d, size, params.request_size, total
        )
        return b_b, b_d, access

    def satisfies(access: AccessTime) -> bool:
        return math.isfinite(access.raw) and access.raw <= params.threshold

    k = 0
    current = evaluate(0)
    feasible = satisfies(current[2])
    if feasible:
        for nxt in range(1, len(order) + 1):
            candidate = evaluate(nxt)
            if not satisfies(candidate[2]):
                break
            k, current = nxt, candidate
    b_b, b_d, access = current
    partition = Partition(tuple(order[:k]), tuple(order[k:]), b_b, b_d)
    return PartitionResult(partition, access, feasible)


@dataclass(frozen=True)
class Multicast:
    object_id: str
    response_time: float
    arrivals: tuple[float, ...]

    @property
    def batch_size(self) -> int:
        return len(self.arrivals)

    @property
    def saved_transmissions(self) -> int:
        return len(self.arrivals) - 1


@dataclass
class BatchingServer:
    """Answer same-object requests inside one window with one multicast.

    A batch opens at the first request for an object and fires at
    first_arrival + window; a request arriving at or after that firing
    instant opens a new batch. With window 0 every request is answered
    individually at its arrival time.
    """

    window: float
    _open: dict[str, list[float]] = field(default_factory=dict)
    _ready: list[Multicast] = field(default_factory=list)
    responses_sent: int = 0
    saved: int = 0

    def submit(self, object_id: str, t: float) -> None:
        arrivals = self._open.get(object_id)
        if arrivals is not None and t < arrivals[0] + self.window:
            arrivals.append(t)
            return
        if arrivals is not None:  # window already closed; seal the old batch
            self._ready.append(
                Multicast(object_id, arrivals[0] + self.window, tuple(arrivals))
            )
        self._open[object_id] = [t]

    def advance(self, now: float) -> list[Multicast]:
        """Fire every batch whose window has closed by ``now``."""
        fired = self._ready
        self._ready = []
        for object_id in sorted(self._open):
            arrivals = self._open[object_id]
            due = arrivals[0] + self.window
            if due <= now:
                fired.append(Multicast(object_id, due, tuple(arrivals)))
                del self._open[object_id]
        fired.sort(key=lambda m: (m.response_time, m.object_id))
        self.responses_sent += len(fired)
        self.saved += sum(m.saved_transmissions for m in fired)
        return fired
