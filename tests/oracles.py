"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the code paths under test: the normal
CDF is numerically integrated rather than using erf, the bandwidth split is
a brute-force grid search rather than golden-section, utility maximization
is exhaustive, and plan feasibility is re-derived from first principles.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from aircell.air_schedule import INDEX, NotApplicable
from aircell.broadcast_plan import AccessTime, Partition, PartitionResult, Unstable
from aircell.cache import (
    SCORED_POLICIES,
    CacheEntry,
    ClientCache,
    EvictionReport,
    PolicyKind,
    ReadStats,
    ReadTracker,
)
from aircell.freshness import (
    FreshnessStats,
    InsufficientHistory,
    SourceObject,
    p_not_modified,
)
from aircell.retrieval import PlannedRead, RefusedSize, RetrievalPlan
from aircell.sim import substream, zipf_pmf


def mean_and_pop_std(xs: list[float]) -> tuple[float, float]:
    n = len(xs)
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    return mean, math.sqrt(var)


def read_stats_reference(
    reads: list[tuple[float, str]], window: int, object_id: str
) -> tuple[float | None, float, int]:
    """Full rescan of the last ``window`` reads: (mtbr, f_r, n_reads)."""
    recent = reads[-window:]
    times = [t for t, o in recent if o == object_id]
    f_r = len(times) / len(recent) if recent else 0.0
    if len(times) < 2:
        return None, f_r, len(times)
    gaps = [b - a for a, b in zip(times, times[1:])]
    return sum(gaps) / len(gaps), f_r, len(times)


def normal_cdf(z: float) -> float:
    """Standard normal CDF by Simpson quadrature of the density."""
    if z < -12:
        return 0.0
    if z > 12:
        return 1.0
    lo, hi = 0.0, abs(z)
    n = max(4, 2 * int(2000 * (hi - lo) + 1))
    xs = np.linspace(lo, hi, n + 1)
    pdf = np.exp(-0.5 * xs * xs) / math.sqrt(2 * math.pi)
    h = (hi - lo) / n
    area = (h / 3) * (pdf[0] + pdf[-1] + 4 * pdf[1:-1:2].sum() + 2 * pdf[2:-1:2].sum())
    return 0.5 + area if z >= 0 else 0.5 - area


def access_time_raw(
    k: int, pub_rate: float, od_rate: float, b_b: float, b_d: float,
    size: float, request_size: float,
) -> float:
    t_b = (k * size) / (2.0 * b_b) if b_b > 0 else math.inf
    mu = b_d / (size + request_size)
    if od_rate > 0 and mu <= od_rate:
        return math.inf
    t_d = 1.0 / (mu - od_rate) if mu > od_rate else math.inf
    total = 0.0
    if pub_rate > 0:
        total += pub_rate * t_b
    if od_rate > 0:
        total += od_rate * t_d
    return total


def grid_search_split(
    k: int, pub_rate: float, od_rate: float, total_b: float,
    size: float, request_size: float, step_frac: float = 1e-4,
) -> tuple[float, float]:
    """Argmin of the access time over a uniform b_b grid (stable region only)."""
    if od_rate == 0:
        return total_b, 0.0
    if k == 0 or pub_rate == 0:
        return 0.0, total_b
    step = step_frac * total_b
    upper = total_b - od_rate * (size + request_size)
    if upper <= 0:
        raise ValueError("no stable split")
    grid = np.arange(step, upper, step)
    mu = (total_b - grid) / (size + request_size)
    values = pub_rate * (k * size) / (2.0 * grid) + od_rate / (mu - od_rate)
    best = int(np.argmin(values))
    return float(grid[best]), float(total_b - grid[best])


def replay_partition(
    rates: dict[str, float], total_b: float, size: float, request_size: float,
    threshold: float, step_frac: float = 1e-4,
) -> tuple[list[str], bool, float]:
    """Re-run the publish-most-demanded-first loop with the grid split oracle."""
    order = sorted(rates, key=lambda o: (-rates[o], o))

    def evaluate(k: int) -> float:
        pub = sum(rates[o] for o in order[:k])
        od = sum(rates[o] for o in order[k:])
        try:
            b_b, b_d = grid_search_split(
                k, pub, od, total_b, size, request_size, step_frac
            )
        except ValueError:
            return math.inf
        return access_time_raw(k, pub, od, b_b, b_d, size, request_size)

    t0 = evaluate(0)
    if not (math.isfinite(t0) and t0 <= threshold):
        return [], False, t0
    current_k, current_t = 0, t0
    for k in range(1, len(order) + 1):
        t = evaluate(k)
        if not (math.isfinite(t) and t <= threshold):
            break
        current_k, current_t = k, t
    return order[:current_k], True, current_t


def check_plan(plan, request, cost) -> list[str]:
    """First-principles feasibility audit of a retrieval plan."""
    problems = []
    program = request.program
    length = program.cycle_len_slots
    if {r.object_id for r in plan.reads} != set(request.desired):
        problems.append("plan does not cover the desired set exactly")
    prev = None
    switches = 0
    for read in plan.reads:
        channel, cycle_slot = program.directory[read.object_id]
        if channel != read.channel:
            problems.append(f"{read.object_id}: wrong channel {read.channel}")
        if read.slot % length != cycle_slot:
            problems.append(f"{read.object_id}: slot {read.slot} not on its phase")
        if read.slot < request.start:
            problems.append(f"{read.object_id}: before start {request.start}")
        if prev is not None:
            if read.slot <= prev.slot:
                problems.append("slots not strictly increasing")
            if read.channel == prev.channel:
                if read.slot - prev.slot < 1:
                    problems.append("same-channel separation < 1")
            else:
                switches += 1
                if read.slot - prev.slot < 1 + cost.switch_slots:
                    problems.append("cross-channel separation < 1 + switch time")
        prev = read
    if plan.switches != switches:
        problems.append(f"switch count {plan.switches} != recomputed {switches}")
    if plan.reads and plan.total_slots != plan.reads[-1].slot - plan.start_slot + 1:
        problems.append("total_slots inconsistent with the last read")
    if plan.active_slots != len(plan.reads):
        problems.append("active_slots != number of reads")
    return problems


def exhaustive_max_utility(suppliers, utilities, weights, feasible):
    """Global maximum by evaluating every supplier and configuration."""
    from aircell.fidelity import config_utility

    best = None
    for supplier in sorted(suppliers, key=lambda s: s.supplier_id):
        for config in feasible.get(supplier.supplier_id, ()):
            u = config_utility(config, utilities, weights, supplier.f_s)
            if best is None or u > best[0]:
                best = (u, supplier.supplier_id, tuple(config))
    return best


def lru_reference(capacity: int, accesses: list[tuple[str, str]]):
    """Doubly-linked-list style LRU: ("get"|"put", key) -> (keys, evictions)."""
    order: OrderedDict[str, bool] = OrderedDict()
    evictions = []
    for op, key in accesses:
        if op == "get":
            if key in order:
                order.move_to_end(key)
        else:
            if key in order:
                order.move_to_end(key)
                continue
            if len(order) == capacity:
                victim, _ = order.popitem(last=False)
                evictions.append(victim)
            order[key] = True
    return list(order), evictions


def ttl_tick_reference(entries, drop: bool, ttl: float, now: float) -> list[tuple[str, str]]:
    """The TTL tick as a walk over every entry: drop, or flag for a requery,
    each entry older than ``ttl`` (strictly), in place; its (action, id)s."""
    actions = []
    for object_id in list(entries):
        entry = entries[object_id]
        if now - entry.cached_at <= ttl:
            continue
        if drop:
            del entries[object_id]
            actions.append(("drop", object_id))
        elif not entry.requery_pending:
            entry.requery_pending = True
            actions.append(("requery", object_id))
    return actions


def score_admission_replay(capacity: int, offers: list[tuple[str, float, float]]):
    """Replay of score-based admission: (object, score, offered_at) -> kept set.

    Admit into free space; otherwise admit only on a strictly higher score
    than the current minimum, evicting the oldest minimum-score entry.
    """
    kept: dict[str, tuple[float, float]] = {}
    for object_id, score, offered_at in offers:
        if object_id in kept:
            kept[object_id] = (score, offered_at)
            continue
        if len(kept) < capacity:
            kept[object_id] = (score, offered_at)
            continue
        min_score = min(s for s, _ in kept.values())
        if score <= min_score:
            continue
        victim = min(
            (at, oid) for oid, (s, at) in kept.items() if s == min_score
        )[1]
        del kept[victim]
        kept[object_id] = (score, offered_at)
    return set(kept)


# --------------------------------------------------------------------------
# Eviction scoring as it stood before the one-pass loop: a full cache
# scores every entry through ``score``, which asks the tracker for the
# entry's ``stats_for`` and, under ACQF, the try/except P_NM, with the CQF
# and ACQF formulas as their own functions. Kept verbatim so that the loop
# is held to equal reports and entry order, not a tolerance.
# --------------------------------------------------------------------------

def _p_not_modified_or_zero_reference(stats: FreshnessStats, now: float) -> float:
    try:
        return p_not_modified(stats, now)
    except InsufficientHistory:
        return 0.0


def _cqf_reference(stats: FreshnessStats, reads: ReadStats) -> float:
    """Caching quality: update interval over read interval (0 if unread)."""
    if reads.mtbr is None or reads.mtbr <= 0:
        return 0.0
    return stats.mtbu / reads.mtbr


def _acqf_reference(f_r: float, p_nm: float, qos: float) -> float:
    """User-centric caching quality: read share times the QoS margin.

    Negative exactly when a read object fails its owner's QoS test.
    """
    return f_r * (p_nm - qos)


class ReadTrackerReference(ReadTracker):
    """The tracker with the ``stats_for`` that computed MTBR and F_R itself."""

    def stats_for(self, object_id: str) -> ReadStats:
        times = self._times.get(object_id, ())
        total = len(self._order)
        f_r = len(times) / total if total else 0.0
        if len(times) < 2:
            return ReadStats(None, f_r, len(times))
        mtbr = self._mtbr.get(object_id)
        if mtbr is None:
            gaps = [b - a for a, b in zip(times, times[1:])]
            mtbr = self._mtbr[object_id] = sum(gaps) / len(gaps)
        return ReadStats(mtbr, f_r, len(times))


class ClientCacheReference(ClientCache):
    """A cache whose ``insert`` scores a full cache one ``score_one`` per entry."""

    def __init__(self, capacity, policy, qos_for=None, default_ttl=None,
                 read_window: int = 256):
        super().__init__(capacity, policy, qos_for, default_ttl, read_window)
        self.reads = ReadTrackerReference(read_window)

    def score_one(self, entry: CacheEntry, now: float) -> float:
        if self.policy is PolicyKind.CQF:
            return _cqf_reference(entry.source_stats_snapshot,
                                  self.reads.stats_for(entry.object_id))
        if self.policy is PolicyKind.ACQF:
            p_nm = _p_not_modified_or_zero_reference(entry.source_stats_snapshot, now)
            return _acqf_reference(
                self.reads.stats_for(entry.object_id).f_r,
                p_nm,
                self.qos_for(entry.object_id),
            )
        raise ValueError(f"policy {self.policy} has no score")

    def insert(self, entry: CacheEntry, now: float) -> EvictionReport:
        self._oldest = min(self._oldest, entry.cached_at)
        if entry.object_id in self.entries:
            self.entries[entry.object_id] = entry
            self.entries.move_to_end(entry.object_id)
            return EvictionReport(admitted=True)
        if len(self.entries) < self.capacity:
            self.entries[entry.object_id] = entry
            return EvictionReport(admitted=True)

        if self.policy in SCORED_POLICIES:
            incoming = self.score_one(entry, now)
            scored = [(self.score_one(e, now), e.cached_at, oid)
                      for oid, e in self.entries.items()]
            min_score, _, _ = min(scored)
            if incoming <= min_score:
                return EvictionReport(False, None, incoming, min_score)
            victims = [(at, oid) for sc, at, oid in scored if sc == min_score]
            _, victim = min(victims)  # oldest cached_at first
            del self.entries[victim]
            self.entries[entry.object_id] = entry
            return EvictionReport(True, victim, incoming, min_score)

        victim, _ = self.entries.popitem(last=False)  # least recently used
        self.entries[entry.object_id] = entry
        return EvictionReport(True, victim)


class UpdateProcessReference:
    """``sim._UpdateProcess`` as it stood with one scalar normal draw per
    interval: the write times the block draws must reproduce."""

    def __init__(self, spec, seed: int, burnin: int):
        self.spec = spec
        self.rng = substream(seed, "updates", spec.object_id)
        self.source = SourceObject(spec.object_id, reachable=spec.reachable)
        draws = [self._draw() for _ in range(burnin)]
        acc = 0.0
        past = []
        for d in draws:
            acc += d
            past.append(-acc)
        for t in sorted(past):
            self.source.write(t)
        self.next_update = past[0] + self._draw()

    def _draw(self) -> float:
        if self.spec.stdv_mtbu == 0.0:
            return self.spec.mtbu
        while True:
            d = float(self.rng.normal(self.spec.mtbu, self.spec.stdv_mtbu))
            if d > 0:
                return d

    def advance_to(self, t: float) -> None:
        while self.next_update <= t:
            self.source.write(self.next_update)
            self.next_update += self._draw()


def arrival_times_reference(rng, request_rate: float, duration_slots: int) -> list[float]:
    """``generate_workload_reference``'s arrival loop on its own: one scalar
    exponential gap per arrival, and the one that passes the end."""
    times: list[float] = []
    t = rng.exponential(1.0 / request_rate)
    while t < duration_slots:
        times.append(t)
        t += rng.exponential(1.0 / request_rate)
    return times


def generate_workload_reference(scenario) -> dict[str, tuple[tuple[int, str], ...]]:
    """``sim.generate_workload`` as it stood with one scalar draw per
    arrival, kept verbatim: the streams and generator states that the
    block draws must reproduce. Every client builds its generator."""
    n = len(scenario.objects)
    pmf = zipf_pmf(n, scenario.zipf_theta) if n else None
    ids = [o.object_id for o in scenario.objects]
    per_client: dict[str, tuple[tuple[int, str], ...]] = {}
    for spec in sorted(scenario.clients, key=lambda c: c.client_id):
        rng = substream(scenario.seed, "workload", spec.client_id)
        times: list[float] = []
        if spec.request_rate > 0 and n:
            t = rng.exponential(1.0 / spec.request_rate)
            while t < scenario.duration_slots:
                times.append(t)
                t += rng.exponential(1.0 / spec.request_rate)
        if times:
            picks = rng.choice(n, size=len(times), p=pmf)
            stream = tuple((int(t), ids[k]) for t, k in zip(times, picks))
        else:
            stream = ()
        per_client[spec.client_id] = stream
    return per_client


def batches_reference(records, window: float):
    """The batching rule replayed over a run's ``on_demand`` records.

    Per object, in query-id order, a request joins the open batch if it is
    issued before that batch's first arrival + window, and opens a new one
    otherwise. Returns each record's expected latency by query id (the
    batch's first arrival + window, less the issue slot, plus the slot of
    receipt) and the size of every batch.
    """
    latency: dict[int, float] = {}
    sizes: list[int] = []
    by_object: dict[str, list] = {}
    for r in sorted(records, key=lambda r: r.query_id):
        if r.resolution == "on_demand":
            by_object.setdefault(r.object_id, []).append(r)
    for batch_requests in by_object.values():
        first = None
        for r in batch_requests:
            if first is None or not r.issued_at < first + window:
                first = r.issued_at
                sizes.append(0)
            sizes[-1] += 1
            latency[r.query_id] = first + window - r.issued_at + 1.0
    return latency, sizes


# --------------------------------------------------------------------------
# The broadcast planner as it stood before the one-pass rewrite: every
# prefix rebuilds the rate dict, the size set and the group sums, and each
# golden-section step builds a full AccessTime. Kept verbatim so that the
# rewrite can be held to bit-exact equality, not a tolerance. It reads the
# fields of the planner's old per-object input, which ``DemandRecord``
# holds; the planner itself now takes a rate map.
# --------------------------------------------------------------------------

class DemandRecord(NamedTuple):
    object_id: str
    rate: float  # request arrivals per time unit
    size: float = 1.0


def _ref_uniform_size(demands) -> float:
    sizes = {d.size for d in demands}
    if len(sizes) != 1:
        raise ValueError("objects must share one size")
    return sizes.pop()


def _ref_group_rates(partition, demands) -> tuple[float, float]:
    by_id = {d.object_id: d.rate for d in demands}
    pub = sum(by_id[o] for o in partition.published)
    dem = sum(by_id[o] for o in partition.on_demand)
    return pub, dem


def _ref_access_time(
    k, pub_rate, od_rate, b_b, b_d, size, request_size, total_rate,
):
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


def _ref_expected_access_time(partition, demands, params):
    size = _ref_uniform_size(demands)
    pub_rate, od_rate = _ref_group_rates(partition, demands)
    total = sum(d.rate for d in demands)
    return _ref_access_time(
        len(partition.published), pub_rate, od_rate,
        partition.b_b, partition.b_d, size, params.request_size, total,
    )


def _ref_golden_section(f, lo: float, hi: float, tol: float) -> float:
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


def _ref_optimize_bandwidth_split(published, on_demand, demands, params):
    if not published and not on_demand:
        raise ValueError("both groups empty")
    by_id = {d.object_id: d.rate for d in demands}
    size = _ref_uniform_size(demands)
    total_b = params.total_bandwidth
    pub_rate = sum(by_id[o] for o in published)
    od_rate = sum(by_id[o] for o in on_demand)
    k = len(published)

    if not on_demand or od_rate == 0:
        return (total_b, 0.0)
    if not published or pub_rate == 0:
        if total_b / (size + params.request_size) <= od_rate:
            raise Unstable("no stable split: on-demand demand exceeds capacity")
        return (0.0, total_b)

    upper = total_b - od_rate * (size + params.request_size)
    if upper <= 0:
        raise Unstable("no stable split: on-demand demand exceeds capacity")

    def objective(b_b: float) -> float:
        return _ref_access_time(
            k, pub_rate, od_rate, b_b, total_b - b_b, size,
            params.request_size, pub_rate + od_rate,
        ).raw

    tol = 1e-6 * total_b
    if upper <= 2 * tol:
        b_b = upper / 2.0
    else:
        b_b = _ref_golden_section(objective, tol, upper - tol, tol)
    return (b_b, total_b - b_b)


def _ref_evaluate_prefix(order, k, demands, params):
    published, on_demand = order[:k], order[k:]
    try:
        b_b, b_d = _ref_optimize_bandwidth_split(published, on_demand, demands, params)
    except Unstable:
        part = Partition(tuple(published), tuple(on_demand), 0.0, params.total_bandwidth)
        size = _ref_uniform_size(demands)
        by_id = {d.object_id: d.rate for d in demands}
        od_rate = sum(by_id[o] for o in on_demand)
        mu_d = params.total_bandwidth / (size + params.request_size)
        return part, AccessTime(math.inf, math.inf, math.inf, math.inf, mu_d, od_rate)
    part = Partition(tuple(published), tuple(on_demand), b_b, b_d)
    return part, _ref_expected_access_time(part, demands, params)


def partition_reference(demands, params):
    """The greedy publish loop, prefix by prefix through the public split."""
    if not demands:
        raise ValueError("no demands given")
    order = [
        d.object_id for d in sorted(demands, key=lambda d: (-d.rate, d.object_id))
    ]

    def satisfies(access) -> bool:
        return math.isfinite(access.raw) and access.raw <= params.threshold

    current_part, current_access = _ref_evaluate_prefix(order, 0, demands, params)
    if not satisfies(current_access):
        return PartitionResult(current_part, current_access, feasible=False)
    for k in range(1, len(order) + 1):
        part, access = _ref_evaluate_prefix(order, k, demands, params)
        if not satisfies(access):
            break
        current_part, current_access = part, access
    return PartitionResult(current_part, current_access, feasible=True)


# --------------------------------------------------------------------------
# The retrieval planners as they stood before the pruned search: every
# candidate order, exhaustive or 2-opt, is scheduled from scratch into a
# full RetrievalPlan. Kept verbatim (with the scheduling helpers they call)
# so that the rewrite is held to equal plans, ties and all.
# --------------------------------------------------------------------------

def _ref_next_occurrence(cycle_slot: int, length: int, min_abs: int) -> int:
    """Smallest absolute slot >= min_abs congruent to cycle_slot mod length."""
    return min_abs + (cycle_slot - min_abs) % length


def _ref_earliest_feasible(
    channel, cycle_slot, length, prev_slot, prev_channel, start, sigma,
):
    """Earliest retrieval slot for an object given the previous read."""
    if prev_slot is None:
        return _ref_next_occurrence(cycle_slot, length, start), False
    if channel == prev_channel:
        return _ref_next_occurrence(cycle_slot, length, prev_slot + 1), False
    return _ref_next_occurrence(cycle_slot, length, prev_slot + 1 + sigma), True


def simulate_order_reference(order, program, start, cost) -> RetrievalPlan:
    """Schedule a fixed retrieval order, each object at its earliest slot."""
    length = program.cycle_len_slots
    reads = []
    switches = 0
    prev_slot = None
    prev_channel = None
    for obj in order:
        channel, cycle_slot = program.directory[obj]
        slot, switched = _ref_earliest_feasible(
            channel, cycle_slot, length, prev_slot, prev_channel, start, cost.switch_slots
        )
        switches += switched
        reads.append(PlannedRead(obj, channel, slot))
        prev_slot, prev_channel = slot, channel
    return RetrievalPlan(
        reads=tuple(reads),
        start_slot=start,
        total_slots=reads[-1].slot - start + 1,
        switches=switches,
        active_slots=len(reads),
    )


def next_object_access_reference(req, cost) -> RetrievalPlan:
    """Greedy: always fetch the remaining object with the earliest feasible slot."""
    program, length = req.program, req.program.cycle_len_slots
    remaining = sorted(req.desired)
    order = []
    prev_slot = None
    prev_channel = None
    while remaining:
        best = None
        for obj in remaining:
            channel, cycle_slot = program.directory[obj]
            slot, switched = _ref_earliest_feasible(
                channel, cycle_slot, length, prev_slot, prev_channel,
                req.start, cost.switch_slots,
            )
            key = (slot, switched, channel, obj)
            if best is None or key < best:
                best = key
        slot, _, channel, obj = best
        order.append(obj)
        remaining.remove(obj)
        prev_slot, prev_channel = slot, channel
    return simulate_order_reference(order, program, req.start, cost)


def tsp_order_reference(req, cost, max_iterations: int = 10_000) -> RetrievalPlan:
    """Nearest-neighbour order improved by 2-opt, scoring whole plans."""
    program = req.program
    order = [r.object_id for r in next_object_access_reference(req, cost).reads]
    best_plan = simulate_order_reference(order, program, req.start, cost)
    n = len(order)
    iterations = 0
    improved = True
    while improved and iterations < max_iterations:
        improved = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                iterations += 1
                candidate = order[:i] + order[i : j + 1][::-1] + order[j + 1 :]
                plan = simulate_order_reference(candidate, program, req.start, cost)
                if plan.total_slots < best_plan.total_slots:
                    order, best_plan = candidate, plan
                    improved = True
                if iterations >= max_iterations:
                    break
            if iterations >= max_iterations:
                break
    return best_plan


def brute_force_reference(req, cost, max_objects: int = 8) -> RetrievalPlan:
    """Every permutation of the sorted ids, each scheduled in full."""
    if len(req.desired) > max_objects:
        raise RefusedSize(f"{len(req.desired)} objects > limit {max_objects}")
    best = None
    for perm in itertools.permutations(sorted(req.desired)):
        plan = simulate_order_reference(list(perm), req.program, req.start, cost)
        if best is None or (plan.total_slots, plan.switches) < (
            best.total_slots,
            best.switches,
        ):
            best = plan
    return best


# --------------------------------------------------------------------------
# The engine's read of one aired object as it stood before the read moved
# into retrieval: the next index segment, ``air_schedule.locate`` strictly
# after it (plus the switch onto a data channel when the index channel is
# dedicated), and a two-read plan built by hand. Kept verbatim but for the
# deleted types: ``locate`` returns its entry as a named tuple and raises
# KeyError for an object off the air, and ``_first_data_channel`` is
# written out where ``next_index_read_end`` called it.
# --------------------------------------------------------------------------

class _DirectoryEntry(NamedTuple):
    object_id: str
    channel: int
    slot: int
    valid_for_cycle: int


def locate_reference(program, index_read_slot: int, object_id: str) -> _DirectoryEntry:
    """Next occurrence of an object strictly after the index read completes."""
    if object_id not in program.directory:
        raise KeyError(object_id)
    channel, cycle_slot = program.directory[object_id]
    length = program.cycle_len_slots
    delta = (cycle_slot - index_read_slot) % length
    if delta == 0:
        delta = length
    absolute = index_read_slot + delta
    return _DirectoryEntry(object_id, channel, absolute, absolute // length)


def next_index_read_end_reference(program, now_slot: int) -> int:
    """Absolute slot at which the next index segment read completes."""
    first_data_channel = (
        1 if program.dedicated_index_channel and program.n_channels > 1 else 0
    )
    channel = 0 if program.dedicated_index_channel else first_data_channel
    positions = program.index_slots(channel)
    if not positions:
        raise NotApplicable(f"scheme {program.scheme.kind!r} has no aggregate index")
    length = program.cycle_len_slots
    phase = now_slot % length
    deltas = [(p - phase) % length for p in positions]
    return now_slot + min(deltas)


def aired_read_reference(program, oid: str, t: int, cost) -> RetrievalPlan:
    """The index read, then ``oid``, for a query issued at slot ``t``."""
    # with a dedicated index channel every data read switches to
    # another channel; otherwise the index is on the data channel
    switches = int(program.dedicated_index_channel)
    idx_end = next_index_read_end_reference(program, t)
    data = locate_reference(
        program, idx_end + cost.switch_slots * switches, oid
    )
    index_read = PlannedRead(
        INDEX, 0 if switches else data.channel, idx_end
    )
    return RetrievalPlan(
        (index_read, PlannedRead(oid, data.channel, data.slot)),
        start_slot=t, total_slots=data.slot - t + 1,
        switches=switches, active_slots=2,
    )


# --------------------------------------------------------------------------
# The fidelity grid filter as it stood before per-axis terms: every grid
# point is encoded and every model's prediction recomputed from scratch.
# --------------------------------------------------------------------------

def feasible_configs_reference(models, domain, available, continuous_points: int = 32):
    """Configurations whose predicted consumption fits every resource limit."""
    grid = domain.grid(continuous_points)
    if not available:
        return grid
    binding = [m for m in models if m.resource_id in available]
    kept = []
    for cfg in grid:
        coords = domain.encode(cfg)
        if all(m.predict(coords) <= available[m.resource_id] for m in binding):
            kept.append(cfg)
    return kept


def metrics_json_reference(metrics) -> bytes:
    """``Metrics.to_json_bytes`` as it was before the record writer: one dict
    per record, every byte written by ``json.dumps``."""
    document = {
        "schema_id": metrics.schema_id,
        "seed": metrics.seed,
        "duration_slots": metrics.duration_slots,
        "counters": {k: metrics.counters[k] for k in sorted(metrics.counters)},
        "per_client_energy": {
            k: metrics.per_client_energy[k] for k in sorted(metrics.per_client_energy)
        },
        "plan": metrics.plan,
        "fidelity_selection": None,
        "summary": metrics.summary(),
        "records": [
            {
                "query_id": r.query_id, "client_id": r.client_id,
                "object_id": r.object_id, "issued_at": r.issued_at,
                "resolution": r.resolution, "latency_slots": r.latency_slots,
                "staleness_slots": r.staleness_slots, "qos": r.qos,
                "qos_met": r.qos_met, "p_nm": r.p_nm,
            }
            for r in metrics.records
        ],
    }
    return json.dumps(document, sort_keys=True, indent=None).encode()
