"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the code paths under test: the normal
CDF is numerically integrated rather than using erf, the bandwidth split is
a brute-force grid search rather than golden-section, utility maximization
is exhaustive, and plan feasibility is re-derived from first principles.
The engine's former loops over every slot are kept as the reference for
its one loop over the queries.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from collections import Counter, OrderedDict
from functools import reduce
from operator import add, itemgetter
from typing import NamedTuple

import numpy as np

from aircell import broadcast_plan
from aircell.air_schedule import INDEX, NotApplicable
from aircell.broadcast_plan import AccessTime, Partition, PartitionResult, Unstable
from aircell.cache import (
    SCORED_POLICIES,
    TTL_POLICIES,
    CacheEntry,
    ClientCache,
    EvictionReport,
    PolicyKind,
    ReadStats,
    ReadTracker,
)
from aircell.freshness import (
    FreshnessStats,
    InvariantError,
    SourceObject,
    accepts,
)
from aircell.retrieval import PlannedRead, RefusedSize, RetrievalPlan
from aircell.sim import (
    Metrics,
    QueryRecord,
    Scenario,
    _write_times,
    cell_catalog,
    generate_workload,
    initial_rates,
    plan_cell,
    plan_summary,
    substream,
    zipf_pmf,
)


def fold(xs) -> float:
    """Add left to right from 0, as ``sum()`` does before CPython 3.12 and
    as the engine adds its floats on every interpreter."""
    return reduce(add, xs, 0)


def mean_and_pop_std(xs: list[float]) -> tuple[float, float]:
    n = len(xs)
    mean = fold(xs) / n
    var = fold((x - mean) ** 2 for x in xs) / n
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


def maximize_utility_reference(suppliers, utilities, weights, feasible):
    """The selection as one ``config_utility`` call per configuration:
    suppliers in descending preference, the early stop, and the first
    strictly greater utility winning a tie."""
    from aircell.fidelity import MaxUtilityResult, NoConfiguration, config_utility

    best = None
    visited = []
    for supplier in sorted(suppliers, key=lambda s: (-s.f_s, s.supplier_id)):
        if best is not None and supplier.f_s < best[0]:
            break
        visited.append(supplier.supplier_id)
        for config in feasible.get(supplier.supplier_id, ()):
            u = config_utility(config, utilities, weights, supplier.f_s)
            if best is None or u > best[0]:
                best = (u, supplier.supplier_id, tuple(config))
    if best is None:
        raise NoConfiguration(tuple(visited))
    return MaxUtilityResult(best[1], best[2], best[0], tuple(visited))


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


def ttl_tick_reference(entries, drop: bool, ttl: float, now: float) -> list[str]:
    """The TTL tick as a walk over every entry: drop, or flag for a requery,
    each entry older than ``ttl`` (strictly), in place; the ids it drops or
    flags, in the order walked."""
    expired = []
    for object_id in list(entries):
        entry = entries[object_id]
        if now - entry.cached_at <= ttl:
            continue
        if drop:
            del entries[object_id]
            expired.append(object_id)
        elif not entry.requery_pending:
            entry.requery_pending = True
            expired.append(object_id)
    return expired


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
        lowest = min(s for s, _ in kept.values())
        if score <= lowest:
            continue
        victim = min(
            (at, oid) for oid, (s, at) in kept.items() if s == lowest
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

def p_not_modified_or_zero_reference(stats: FreshnessStats, now: float) -> float:
    """P_NM written out as the complement of the probability of a change,
    with that probability's operations in the order the model has always
    used, so that it equals the library's bit for bit; insufficient history
    (fewer than two intervals) gives 0.0. Unlike the rest of this module it
    uses ``math.erf``: the quadrature CDF above agrees only to a tolerance.
    """
    if stats.n_intervals < 2:
        return 0.0
    t = now - stats.t_last_update
    if t < 0:
        raise ValueError(f"now={now} precedes last update at {stats.t_last_update}")
    mtbu, stdv = stats.mtbu, stats.stdv_mtbu
    if stdv == 0.0:
        p_modified = 0.0 if t < mtbu else 1.0
    else:
        z = (t - mtbu) / stdv
        p_modified = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return 1.0 - p_modified


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
    """A cache whose ``insert`` scores a full cache one ``score_one`` per
    entry, with the owner's QoS per object from ``qos_for``."""

    def __init__(self, capacity, policy, qos_for, default_ttl=None,
                 read_window: int = 256):
        super().__init__(capacity, policy, default_ttl=default_ttl, read_window=read_window)
        self.qos_for = qos_for
        self.reads = ReadTrackerReference(read_window)

    def score_one(self, entry: CacheEntry, now: float) -> float:
        if self.policy is PolicyKind.CQF:
            return _cqf_reference(entry.source_stats_snapshot,
                                  self.reads.stats_for(entry.object_id))
        if self.policy is PolicyKind.ACQF:
            p_nm = p_not_modified_or_zero_reference(entry.source_stats_snapshot, now)
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
            lowest, _, _ = min(scored)
            if incoming <= lowest:
                return EvictionReport(False)
            victims = [(at, oid) for sc, at, oid in scored if sc == lowest]
            _, victim = min(victims)  # oldest cached_at first
            del self.entries[victim]
            self.entries[entry.object_id] = entry
            return EvictionReport(True, victim)

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


def workload_pairs(scenario) -> dict[str, tuple[tuple[int, str], ...]]:
    """``sim.generate_workload``'s columns in the shape of
    ``generate_workload_reference``: every client, by id, with its (slot,
    object_id) pairs, and () for one that asks nothing."""
    ids = [o.object_id for o in scenario.objects]
    drawn = generate_workload(scenario)
    per_client: dict[str, tuple[tuple[int, str], ...]] = {}
    for spec in sorted(scenario.clients, key=lambda c: c.client_id):
        stream = ()
        if spec.client_id in drawn:
            slots, picks = drawn[spec.client_id]
            stream = tuple(zip(slots.tolist(), [ids[k] for k in picks.tolist()]))
        per_client[spec.client_id] = stream
    return per_client


def queries_reference(scenario) -> list[tuple[int, int, str, str, float]]:
    """``sim._queries`` as it stood when it built a tuple per query, kept
    verbatim but for its draws, which come from
    ``generate_workload_reference``: (slot, query_id, client_id, object_id,
    qos) in issue order, by slot and by client id within a slot."""
    specs = {c.client_id: c for c in scenario.clients}
    per_client = generate_workload_reference(scenario)
    issued = sorted(  # stable
        ((slot, cid, oid) for cid in sorted(per_client)
         for slot, oid in per_client[cid]),
        key=itemgetter(0),
    )
    return [(slot, qid, cid, oid, specs[cid].qos(oid))
            for qid, (slot, cid, oid) in enumerate(issued)]


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
# rewrite can be held to bit-exact equality, not a tolerance, except that
# its rate sums ``fold`` left to right, as the planner now adds them. It
# reads the fields of the planner's old per-object input, which
# ``DemandRecord`` holds; the planner itself now takes a rate map.
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
    pub = fold(by_id[o] for o in partition.published)
    dem = fold(by_id[o] for o in partition.on_demand)
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
    total = fold(d.rate for d in demands)
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
    pub_rate = fold(by_id[o] for o in published)
    od_rate = fold(by_id[o] for o in on_demand)
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
        od_rate = fold(by_id[o] for o in on_demand)
        mu_d = params.total_bandwidth / (size + params.request_size)
        return part, AccessTime(math.inf, math.inf, math.inf, math.inf, mu_d, od_rate)
    part = Partition(tuple(published), tuple(on_demand), b_b, b_d)
    return part, _ref_expected_access_time(part, demands, params)


def _ref_move_order(demands):
    return [d.object_id for d in sorted(demands, key=lambda d: (-d.rate, d.object_id))]


def prefix_reference(demands, params, k):
    """The plan of the move order's first k objects published: (partition, access)."""
    return _ref_evaluate_prefix(_ref_move_order(demands), k, demands, params)


def partition_reference(demands, params):
    """The greedy publish loop, prefix by prefix through the public split."""
    if not demands:
        raise ValueError("no demands given")
    order = _ref_move_order(demands)

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
        raise NotApplicable("the program has no index slots")
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


def csv_bytes(metrics: Metrics) -> bytes:
    """What ``Metrics.write_csv`` writes, as one bytes object."""
    buffer = io.BytesIO()
    metrics.write_csv(buffer)
    return buffer.getvalue()


def metrics_csv_reference(metrics) -> bytes:
    """``Metrics.write_csv``'s bytes as they were before the record writer:
    one line per record, each field written by itself, and every line
    ended."""
    def text(value) -> str:
        if isinstance(value, str):
            if any(c in value for c in ',"\r\n'):
                return '"' + value.replace('"', '""') + '"'
            return value
        if isinstance(value, bool):
            return "1" if value else "0"
        return json.dumps(value)

    lines = [",".join(Metrics.CSV_COLUMNS)]
    lines += [",".join(text(getattr(r, c)) for c in Metrics.CSV_COLUMNS)
              for r in metrics.records]
    lines += [f"summary,*,{key},{text(value)},,,," for key, value in metrics.summary().items()]
    lines += [f"summary,{text(cid)},energy,{text(metrics.per_client_energy[cid])},,,,"
              for cid in sorted(metrics.per_client_energy)]
    return "".join(line + "\n" for line in lines).encode()


def with_records(metrics: Metrics, records) -> Metrics:
    """``metrics`` with its columns holding ``records``, whose query ids
    must be their positions, as a run's are; its ``query_id`` column is
    the range of them, as a run's is."""
    ids = [r.query_id for r in records]
    if ids != list(range(len(records))):
        raise ValueError(f"query ids {ids} are not their positions")
    metrics.columns = {name: [getattr(r, name) for r in records]
                       for name in QueryRecord._fields}
    metrics.columns["query_id"] = range(len(records))
    return metrics


# --------------------------------------------------------------------------
# CPython 3.12's builtin ``sum``, for running 3.12's float sums on an older
# interpreter. From 3.12 on, ``sum`` adds exact floats with Neumaier's
# compensated summation, so a float total can differ in its last bits from
# the left-to-right total of 3.10 and 3.11.
# --------------------------------------------------------------------------

_LONG_MIN, _LONG_MAX = -2**63, 2**63 - 1  # a C long on 64-bit Linux


def compensated_sum(iterable, /, start=0):
    """``sum`` as CPython 3.12 computes it, written out in Python.

    The C code's fast paths, in its order: ints are added exactly while the
    total fits a C long; from the first exact float on, exact floats are
    added with a running compensation term (ints that fit a C long are
    added plainly), which is added back, if finite and nonzero, when the
    floats end; anything else, a numpy scalar say, and everything after
    it goes through ``+``.
    """
    items = iter(iterable)
    result = start
    if type(result) is int and _LONG_MIN <= result <= _LONG_MAX:
        for item in items:
            if type(item) in (int, bool) and _LONG_MIN <= result + item <= _LONG_MAX:
                result += item
            else:
                result = result + item
                break
        else:
            return result
    if type(result) is float:
        total, comp = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
            elif isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                total += float(item)
            else:
                if comp and math.isfinite(comp):
                    total += comp
                result = total + item
                break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in items:
        result = result + item
    return result


# --------------------------------------------------------------------------
# The engine as two slot loops, one per resolution mode. Each visits every
# slot of the run and ticks every TTL cache at every tick slot, so it needs
# none of the skipping that ``sim.run`` relies on to be exact.
# --------------------------------------------------------------------------

# A query as the slot loops take it: (query_id, client_id, object_id, qos).
Query = tuple[int, str, str, float]


def _queries_by_slot(scenario: Scenario) -> dict[int, list[Query]]:
    """The workload's queries by the slot they are issued in, in client id
    order within a slot; ids are numbered in this order from 0."""
    specs = {c.client_id: c for c in scenario.clients}
    per_client = workload_pairs(scenario)
    issued = sorted(  # stable
        ((slot, cid, oid) for cid in sorted(per_client)
         for slot, oid in per_client[cid]),
        key=itemgetter(0),
    )
    by_slot: dict[int, list[Query]] = {}
    for qid, (slot, cid, oid) in enumerate(issued):
        by_slot.setdefault(slot, []).append((qid, cid, oid, specs[cid].qos(oid)))
    return by_slot


def run_slot_loops(scenario: Scenario) -> Metrics:
    """``sim.run`` as it was when each mode had its own loop over every
    slot of the run, busy or idle: the reference for the engine's one loop
    over the queries. Its columns hold ``slot_loops``'s records."""
    return with_records(*slot_loops(scenario))


def slot_loops(scenario: Scenario) -> tuple[Metrics, list[QueryRecord]]:
    """The slot loops' metrics, with no query or outcome columns, and their
    records, a list of ``QueryRecord``s in query id order, as ``sim.run``
    kept them. The loops below are that engine's, unchanged.

    The records are the run's one account of its queries: the query
    counters are counted from them. Raises ``InvariantError`` unless each
    issued query has exactly one record.
    """
    metrics = Metrics(scenario.schema_id, scenario.seed, scenario.duration_slots)
    metrics.counters = counters = dict.fromkeys(("requeries", "ttl_drops", "broadcast_slots",
                                                 "on_demand_responses", "batching_saved"), 0)
    metrics.per_client_energy = {c.client_id: 0.0 for c in scenario.clients}
    queries = _queries_by_slot(scenario)
    issued = sum(map(len, queries.values()))
    engine = _run_broadcast if scenario.resolution_mode == "broadcast" else _run_p2p
    records: list[QueryRecord] = []
    engine(scenario, metrics, queries, records)
    records.sort(key=itemgetter(0))
    ids = list(map(itemgetter(0), records))
    if ids != list(range(issued)):
        # the first place where the sorted ids leave 0, 1, 2, ...
        i = next((i for i, qid in enumerate(ids) if qid != i), len(ids))
        problem = (f"query {ids[i]} has more than one record" if i < len(ids) and ids[i] < i
                   else f"query {i} has no record" if i < issued
                   else f"query {ids[issued]} was never issued")
        raise InvariantError(f"{len(ids)} records for {issued} issued queries: {problem}")
    resolutions = Counter(map(itemgetter(4), records))
    counters.update(
        issued=issued, answered=len(records) - resolutions["unresolved"],
        unresolved=resolutions["unresolved"], index_reads=resolutions["broadcast"],
        source_load=(resolutions["source"] + counters["requeries"]
                     + counters["on_demand_responses"]),
    )
    return metrics, records


def _run_p2p(
    scenario: Scenario, metrics: Metrics, queries: dict[int, list[Query]],
    records: list[QueryRecord],
) -> None:
    """Resolve each query down the peer-to-peer chain.

    Each source applies its own scheduled writes when read, and only
    TTL-policy caches are ticked, in client order: the metrics are the
    bytes of writing every source and ticking every cache in every slot.
    The chain is ``resolve_reference``'s, over the library's caches and
    sources, and every answer's staleness is taken from the source.

    Raises ``InvariantError`` if an answer carries a write from after its
    slot.
    """
    counters = metrics.counters
    sources = {
        o.object_id: SourceObject(
            o.object_id, reachable=o.reachable,
            schedule=_write_times(o, scenario.seed, scenario.history_burnin),
        )
        for o in scenario.objects
    }
    caches: dict[str, ClientCache | None] = {}
    ttl_caches: list[ClientCache] = []  # in client order, the order of ticks
    for spec in sorted(scenario.clients, key=lambda c: c.client_id):
        cache = None
        if scenario.caching:
            cache = ClientCache(
                spec.cache_capacity, spec.policy, spec.default_qos, spec.qos_overrides,
                default_ttl=scenario.default_ttl, read_window=scenario.read_window,
            )
            if spec.policy in TTL_POLICIES:
                ttl_caches.append(cache)
        caches[spec.client_id] = cache
    cell = CellReference(
        caches, {c.client_id: set(c.providers) for c in scenario.clients},
        {cid: sorted(scenario.adjacency.get(cid, ())) for cid in caches},
        sources, scenario,
    )

    for t in range(scenario.duration_slots):
        for qid, cid, oid, qos in queries.get(t, ()):
            resolution, latency, p_nm, write_time = resolve_reference(cell, cid, oid, qos, t)
            if write_time > t:
                raise InvariantError(
                    f"query {qid}: {oid} answered with a write at "
                    f"{write_time}, after slot {t}"
                )
            if resolution == "unresolved":
                records.append(QueryRecord(qid, cid, oid, t, "unresolved",
                                           latency, 0.0, qos, False, 0.0))
                continue
            staleness = sources[oid].last_write(t) - write_time
            records.append(QueryRecord(qid, cid, oid, t, resolution, latency,
                                       staleness, qos, accepts(qos, p_nm), p_nm))

        if ttl_caches and t % scenario.tick_interval == 0:
            for cache in ttl_caches:
                for object_id in cache.tick(t):
                    if cache.policy is PolicyKind.TTL_DROP:
                        counters["ttl_drops"] += 1
                        continue
                    source = sources[object_id]
                    if source.reachable:
                        stats = source.read(t)
                        cache.insert(CacheEntry(object_id, stats, cached_at=t), t)
                        counters["requeries"] += 1


class CellReference(NamedTuple):
    """A cell as the reference chain reads it: per client id, its cache (or
    None), the objects it provides and its neighbours in id order."""

    caches: dict[str, ClientCache | None]
    providers: dict[str, set[str]]
    neighbors: dict[str, list[str]]
    sources: dict[str, SourceObject]
    scenario: Scenario


def _own_answer_reference(cell: CellReference, cid: str, oid: str, qos: float,
                          now: float) -> tuple[str, float, FreshnessStats] | None:
    """Client ``cid``'s own answer: ("cache", P_NM, snapshot) for a cached
    copy that meets ``qos``, ("provider", 1.0, read) for a provider it
    registered, else None. The cache is only peeked."""
    cache = cell.caches[cid]
    entry = cache.peek(oid) if cache is not None else None
    if entry is not None:
        p_nm = p_not_modified_or_zero_reference(entry.source_stats_snapshot, now)
        if p_nm >= qos:
            return "cache", p_nm, entry.source_stats_snapshot
    if oid in cell.providers[cid]:
        return "provider", 1.0, cell.sources[oid].read(now)
    return None


def resolve_reference(cell: CellReference, cid: str, oid: str, qos: float,
                      now: float) -> tuple[str, float, float, float]:
    """The resolution chain, one step after another: the querier's own
    answer, then every neighbour's in id order, the freshest winning and
    the first of equals on ties, then the source. A fetched answer is
    cached by the querier and, with overhearing, by each neighbour but the
    one that served it. Returns (resolution, latency, P_NM, write time)."""
    costs, cache = cell.scenario.costs, cell.caches[cid]

    def fetched(resolution, latency, p_nm, stats, served_by):
        if cache is not None:
            cache.insert(CacheEntry(oid, stats, cached_at=now), now)
        if cell.scenario.overhearing:
            for nid in cell.neighbors[cid]:
                peer = cell.caches[nid]
                if nid != served_by and peer is not None:
                    peer.insert(CacheEntry(oid, stats, cached_at=now), now)
        return resolution, latency, p_nm, stats.t_last_update

    if cache is not None:
        cache.record_read(oid, now)
    own = _own_answer_reference(cell, cid, oid, qos, now)
    if own is not None:
        kind, p_nm, stats = own
        if kind == "cache":
            cache.get(oid, now)
            return "local_cache", costs.local, p_nm, stats.t_last_update
        return fetched("local_provider", costs.local, p_nm, stats, cid)
    best = None
    if cell.scenario.p2p:
        for nid in cell.neighbors[cid]:
            answer = _own_answer_reference(cell, nid, oid, qos, now)
            if answer is not None and (best is None or answer[1] > best[1][1]):
                best = (nid, answer)
    if best is not None:
        nid, (kind, p_nm, stats) = best
        return fetched(f"neighbor_{kind}", 2 * costs.hop, p_nm, stats, nid)
    source = cell.sources[oid]
    if source.reachable:
        return fetched("source", costs.source, 1.0, source.read(now), "source")
    return "unresolved", costs.source, 0.0, now


def _run_broadcast(
    scenario: Scenario, metrics: Metrics, queries: dict[int, list[Query]],
    records: list[QueryRecord],
) -> None:
    """Answer each query from the air or from a batched multicast.

    No sources, caches or information managers are built: an aired
    or multicast answer carries the source's current write, so its staleness
    is 0 whatever the source's history. A published object is read by
    ``aired_read_reference`` and costed with ``retrieval.account``'s
    arithmetic written out, in its order of operations, so that energies
    compare bit for bit; any other query joins its object's batch, whose
    response time ``submit`` returns. Either way the query is recorded in
    the slot it is issued. The server
    sends its multicasts once, after the slot loop, and they are counted
    there. ``broadcast_slots`` counts channel-slots on air: each slot adds
    the channels of the program then in force, if any.
    """
    counters = metrics.counters
    cost = scenario.cell.cost_model
    replan_interval = scenario.cell.replan_interval
    catalog = cell_catalog(scenario)
    plan_result, program = plan_cell(scenario, catalog, initial_rates(scenario))
    metrics.plan = plan_summary(plan_result)
    batching = broadcast_plan.BatchingServer(scenario.cell.batching_window)
    observed_requests = {o.object_id: 0 for o in scenario.objects}

    for t in range(scenario.duration_slots):
        if replan_interval > 0 and t > 0 and t % replan_interval == 0:
            observed_rates = np.array([n / t for n in observed_requests.values()])
            new_result, new_program = plan_cell(scenario, catalog, observed_rates)
            if new_result.feasible:
                program = new_program
                metrics.plan = plan_summary(new_result)
        if program is not None:  # channel-slots on air
            counters["broadcast_slots"] += program.n_channels

        for qid, cid, oid, qos in queries.get(t, ()):
            observed_requests[oid] += 1
            if program is None or oid not in program.directory:
                kind, latency = "on_demand", batching.submit(oid, t) - t + 1.0
            else:
                plan = aired_read_reference(program, oid, t, cost)
                doze = plan.total_slots - plan.active_slots - cost.switch_slots * plan.switches
                metrics.per_client_energy[cid] += (
                    plan.active_slots * cost.e_active
                    + doze * cost.e_doze
                    + plan.switches * cost.e_switch
                )
                kind, latency = "broadcast", float(plan.total_slots)
            records.append(QueryRecord(qid, cid, oid, t, kind, latency,
                                       0.0, qos, accepts(qos, 1.0), 1.0))

    multicasts = batching.advance(math.inf)
    counters["on_demand_responses"] = len(multicasts)
    counters["batching_saved"] = sum(m.saved_transmissions for m in multicasts)
