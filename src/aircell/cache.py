"""Per-client bounded cache with freshness-aware replacement policies.

Policies:
  LRU          evict the least recently used entry
  TTL_DROP     drop entries older than their time-to-live
  TTL_REQUERY  flag expired entries for a refresh instead of dropping
  CQF          keep the entries with the highest MTBU / MTBR ratio
  ACQF         keep the entries with the highest F_R * (P_NM - QoS)

Score-based policies admit a new entry into a full cache only when its
score strictly exceeds the current minimum; the minimum-score entry is
evicted, oldest first on ties. ``ClientCache.score`` rates the incoming
entry and every resident in one pass, and ``insert`` calls it for each
admission into a full scored cache. Read statistics (MTBR and the
read-share F_R) come from a sliding window over the client's own reads.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple

from .freshness import FreshnessStats, InvariantError, p_not_modified_or_zero


class PolicyKind(str, Enum):
    LRU = "lru"
    TTL_DROP = "ttl_drop"
    TTL_REQUERY = "ttl_requery"
    CQF = "cqf"
    ACQF = "acqf"


# the only policies whose tick does anything
TTL_POLICIES = frozenset({PolicyKind.TTL_DROP, PolicyKind.TTL_REQUERY})
# the only policies that score entries, and so the only readers of the window
SCORED_POLICIES = frozenset({PolicyKind.CQF, PolicyKind.ACQF})


class ReadStats(NamedTuple):
    """Windowed read statistics for one object on one client."""

    mtbr: float | None  # mean time between reads; None with < 2 reads
    f_r: float  # this object's share of the window's reads
    n_reads: int


@dataclass
class CacheEntry:
    object_id: str
    source_stats_snapshot: FreshnessStats
    cached_at: float
    requery_pending: bool = False

    def __post_init__(self) -> None:
        # clocks are global in-sim, so a copy can never predate its write
        if self.cached_at < self.source_stats_snapshot.t_last_update:
            raise InvariantError(
                f"{self.object_id}: cached at {self.cached_at} before its write "
                f"at {self.source_stats_snapshot.t_last_update}"
            )


class ReadTracker:
    """Sliding window over a client's reads, shared by all its entries.

    The window keeps the object id of each read in order, and each object
    keeps the times of its own reads in the window, oldest first. A read
    leaving the window is the oldest read of its object, so sliding costs
    one pop from each, and ``stats_for`` looks only at one object's reads.
    An object's MTBR is re-derived only after its reads in the window
    change: ``record`` forgets the memoized mean of the object it appends
    and of the object whose oldest read it pushes out, and a miss computes
    the mean of that object's gaps as a full rescan does.
    """

    def __init__(self, window: int = 256):
        if window < 2:
            raise ValueError("window must hold at least 2 reads")
        self._order: deque[str] = deque(maxlen=window)
        self._times: dict[str, list[float]] = {}
        self._mtbr: dict[str, float] = {}

    def record(self, t: float, object_id: str) -> None:
        if len(self._order) == self._order.maxlen:
            oldest = self._order[0]  # the append below pushes it out
            times = self._times[oldest]
            del times[0]
            if not times:
                del self._times[oldest]
            self._mtbr.pop(oldest, None)
        self._order.append(object_id)
        self._times.setdefault(object_id, []).append(t)
        self._mtbr.pop(object_id, None)

    def mtbr(self, object_id: str) -> float | None:
        """Mean time between the object's reads in the window; None with < 2."""
        mtbr = self._mtbr.get(object_id)
        if mtbr is None:
            times = self._times.get(object_id, ())
            if len(times) < 2:
                return None
            gaps = [b - a for a, b in zip(times, times[1:])]
            mtbr = self._mtbr[object_id] = sum(gaps) / len(gaps)
        return mtbr

    def f_r(self, object_id: str) -> float:
        """The object's share of the window's reads; 0 while it is empty."""
        total = len(self._order)
        return len(self._times.get(object_id, ())) / total if total else 0.0

    def stats_for(self, object_id: str) -> ReadStats:
        return ReadStats(self.mtbr(object_id), self.f_r(object_id),
                         len(self._times.get(object_id, ())))


class EvictionReport(NamedTuple):
    admitted: bool
    evicted: str | None = None
    incoming_score: float | None = None
    min_score: float | None = None


@dataclass(frozen=True)
class TickAction:
    action: str  # "drop" | "requery"
    object_id: str


class ClientCache:
    """Count-bounded cache owned by a single client.

    ``qos_for`` supplies the owner's QoS setting per object (ACQF scoring);
    ``default_ttl`` is every entry's time-to-live under the TTL policies.
    Only the owner's reads (get) update recency and read stats; remote
    serves should use ``peek``.
    """

    def __init__(
        self,
        capacity: int,
        policy: PolicyKind,
        qos_for: Callable[[str], float] | None = None,
        default_ttl: float | None = None,
        read_window: int = 256,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.policy = policy
        self.qos_for = qos_for or (lambda _obj: 0.0)
        self.default_ttl = default_ttl
        self.entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self.reads = ReadTracker(read_window)
        # at most the least cached_at of the entries not pending a requery
        self._oldest = math.inf

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self.entries

    def record_read(self, object_id: str, now: float) -> None:
        """Count a local request for an object toward its read statistics.

        Only the scored policies read the window, so the others skip it.
        """
        if self.policy in SCORED_POLICIES:
            self.reads.record(now, object_id)

    def get(self, object_id: str, now: float) -> CacheEntry | None:
        """Owner read: returns the entry and refreshes its recency."""
        entry = self.entries.get(object_id)
        if entry is not None:
            self.entries.move_to_end(object_id)
        return entry

    def peek(self, object_id: str) -> CacheEntry | None:
        """Recency-neutral lookup used when serving other clients."""
        return self.entries.get(object_id)

    def score(
        self, entries: Iterable[tuple[str, CacheEntry]], now: float
    ) -> list[tuple[float, float, str]]:
        """(score, cached_at, object_id) of each ``(object_id, entry)`` pair,
        in one pass.

        CQF is the update interval over the read interval, mtbu / mtbr, and
        0 for an object read fewer than twice. ACQF is the read share times
        the QoS margin, f_r * (p_nm - qos), negative exactly when a read
        object fails its owner's QoS test. Each loop asks the tracker only
        for the one statistic its policy reads; the other policies have no
        score.
        """
        if self.policy is PolicyKind.CQF:
            mtbr = self.reads.mtbr
            scored = []
            for oid, e in entries:
                m = mtbr(oid)
                score = 0.0 if m is None or m <= 0 else e.source_stats_snapshot.mtbu / m
                scored.append((score, e.cached_at, oid))
            return scored
        if self.policy is not PolicyKind.ACQF:
            raise ValueError(f"policy {self.policy} has no score")
        f_r, qos_for, p_nm = self.reads.f_r, self.qos_for, p_not_modified_or_zero
        return [
            (f_r(oid) * (p_nm(e.source_stats_snapshot, now) - qos_for(oid)), e.cached_at, oid)
            for oid, e in entries
        ]

    def insert(self, entry: CacheEntry, now: float) -> EvictionReport:
        """Admit an entry, evicting per policy when the cache is full."""
        self._oldest = min(self._oldest, entry.cached_at)
        if entry.object_id in self.entries:
            self.entries[entry.object_id] = entry
            self.entries.move_to_end(entry.object_id)
            return EvictionReport(admitted=True)
        if len(self.entries) < self.capacity:
            self.entries[entry.object_id] = entry
            return EvictionReport(admitted=True)

        if self.policy in SCORED_POLICIES:
            (incoming, _, _), *residents = self.score(
                [(entry.object_id, entry), *self.entries.items()], now)
            # the minimum score, oldest cached_at first on ties
            min_score, _, victim = min(residents)
            if incoming <= min_score:
                return EvictionReport(False, None, incoming, min_score)
            del self.entries[victim]
            self.entries[entry.object_id] = entry
            return EvictionReport(True, victim, incoming, min_score)

        victim, _ = self.entries.popitem(last=False)  # least recently used
        self.entries[entry.object_id] = entry
        return EvictionReport(True, victim)

    def tick(self, now: float) -> list[TickAction]:
        """Expire entries under the TTL policies (strict age > ttl).

        The entries are walked only if the oldest one not pending a requery
        may have expired: ``now - cached_at`` only shrinks as ``cached_at``
        grows, so no other entry can have expired if that one has not, and
        an entry pending a requery does nothing when walked.
        """
        ttl = self.default_ttl
        if self.policy not in TTL_POLICIES or ttl is None or now - self._oldest <= ttl:
            return []
        actions: list[TickAction] = []
        self._oldest = math.inf
        for object_id in list(self.entries):
            entry = self.entries[object_id]
            if now - entry.cached_at <= ttl:
                if not entry.requery_pending:
                    self._oldest = min(self._oldest, entry.cached_at)
            elif self.policy is PolicyKind.TTL_DROP:
                del self.entries[object_id]
                actions.append(TickAction("drop", object_id))
            elif not entry.requery_pending:
                entry.requery_pending = True
                actions.append(TickAction("requery", object_id))
        return actions
