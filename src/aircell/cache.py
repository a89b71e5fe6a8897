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
from enum import Enum
from typing import Callable, Iterable, Mapping, NamedTuple

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


class CacheEntry:
    """A cached copy: the source's stats snapshot it was served with, when
    it was cached, and whether a TTL requery of it is pending."""

    __slots__ = ("object_id", "source_stats_snapshot", "cached_at", "requery_pending")

    def __init__(self, object_id: str, source_stats_snapshot: FreshnessStats,
                 cached_at: float, requery_pending: bool = False):
        # clocks are global in-sim, so a copy can never predate its write
        if cached_at < source_stats_snapshot.t_last_update:
            raise InvariantError(
                f"{object_id}: cached at {cached_at} before its write "
                f"at {source_stats_snapshot.t_last_update}"
            )
        self.object_id = object_id
        self.source_stats_snapshot = source_stats_snapshot
        self.cached_at = cached_at
        self.requery_pending = requery_pending


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

    def stats_for(self, object_id: str) -> ReadStats:
        """The object's MTBR, its share of the window's reads (0 while the
        window is empty), and its read count."""
        n_reads, total = len(self._times.get(object_id, ())), len(self._order)
        return ReadStats(self.mtbr(object_id), n_reads / total if total else 0.0, n_reads)


class EvictionReport(NamedTuple):
    admitted: bool
    evicted: str | None = None


# the reports that name no victim, built once
_ADMITTED, _REFUSED = EvictionReport(True), EvictionReport(False)
# An EvictionReport without NamedTuple's interpreted __new__, one per
# eviction: _new(EvictionReport, (True, victim)) builds the same tuple.
_new = tuple.__new__


class ClientCache:
    """Count-bounded cache owned by a single client.

    The owner's QoS setting for an object (ACQF scoring) is its entry in
    ``qos_overrides``, else ``default_qos``; ``default_ttl`` is every
    entry's time-to-live under the TTL policies.
    Only the owner's reads (get) update recency and read stats; remote
    serves should use ``peek``. Whoever inserts, ``insert`` calls ``wake``,
    if the ticking engine set it, when ``next_expiry`` turns finite.
    """

    def __init__(
        self,
        capacity: int,
        policy: PolicyKind,
        default_qos: float = 0.0,
        qos_overrides: Mapping[str, float] | None = None,
        default_ttl: float | None = None,
        read_window: int = 256,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.policy = policy
        self.default_qos = default_qos
        self.qos_overrides = qos_overrides or {}
        self.default_ttl = default_ttl
        self.entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self.reads = ReadTracker(read_window)
        # at most the least cached_at of the entries not pending a requery
        self._oldest = math.inf
        # called by ``insert`` when the first tick time turns finite
        self.wake: Callable[[], None] | None = None

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
        object fails its owner's QoS test, and 0 for an object not read in
        the window, whose P_NM is then not asked. Each loop reads the
        tracker's window and memo itself, so a Python call per entry is
        made only for an MTBR not yet memoized and for each P_NM; the other
        policies have no score.
        """
        reads = self.reads
        if self.policy is PolicyKind.CQF:
            memo, mtbr = reads._mtbr, reads.mtbr
            scored = []
            for oid, e in entries:
                m = memo.get(oid)
                if m is None:
                    m = mtbr(oid)
                score = 0.0 if m is None or m <= 0 else e.source_stats_snapshot.mtbu / m
                scored.append((score, e.cached_at, oid))
            return scored
        if self.policy is not PolicyKind.ACQF:
            raise ValueError(f"policy {self.policy} has no score")
        times, total = reads._times, len(reads._order)
        qos, default_qos = self.qos_overrides.get, self.default_qos
        p_nm = p_not_modified_or_zero
        scored = []
        for oid, e in entries:
            n_reads = len(times.get(oid, ()))
            score = 0.0
            if n_reads:
                margin = p_nm(e.source_stats_snapshot, now) - qos(oid, default_qos)
                score = n_reads / total * margin
            scored.append((score, e.cached_at, oid))
        return scored

    def insert(self, entry: CacheEntry, now: float) -> EvictionReport:
        """Admit an entry, evicting per policy when the cache is full. If
        the kept oldest ``cached_at`` was inf, the entry lowers it and then
        calls ``wake``, if set, before it is stored."""
        if entry.cached_at < self._oldest:
            woke = self._oldest == math.inf
            self._oldest = entry.cached_at
            if woke and self.wake is not None:
                self.wake()
        if entry.object_id in self.entries:
            self.entries[entry.object_id] = entry
            self.entries.move_to_end(entry.object_id)
            return _ADMITTED
        if len(self.entries) < self.capacity:
            self.entries[entry.object_id] = entry
            return _ADMITTED

        if self.policy in SCORED_POLICIES:
            (incoming, _, _), *residents = self.score(
                [(entry.object_id, entry), *self.entries.items()], now)
            # the minimum score, oldest cached_at first on ties
            lowest, _, victim = min(residents)
            if incoming <= lowest:
                return _REFUSED
            del self.entries[victim]
            self.entries[entry.object_id] = entry
            return _new(EvictionReport, (True, victim))

        victim, _ = self.entries.popitem(last=False)  # least recently used
        self.entries[entry.object_id] = entry
        return _new(EvictionReport, (True, victim))

    def next_expiry(self) -> float:
        """The first integer ``now`` at which ``tick`` may act, for entries
        cached at integer times; inf if it never can.

        An entry cached at c is first older than the ttl at c + floor(ttl)
        + 1, and the kept oldest ``cached_at`` is a lower bound on the
        entries not pending a requery, so ``tick`` does nothing before this
        time. At or after it, ``tick``'s own test decides. While entries are
        cached at nondecreasing times, only ``tick`` raises it, and
        ``insert`` lowers it only from inf, and then calls ``wake``.
        """
        ttl = self.default_ttl
        if (self.policy not in TTL_POLICIES or ttl is None or ttl == math.inf
                or self._oldest == math.inf):
            return math.inf
        return math.floor(self._oldest) + math.floor(ttl) + 1

    def tick(self, now: float) -> list[str]:
        """Expire entries under the TTL policies (strict age > ttl): drop
        each, or flag it pending a requery; return their ids as walked.

        The entries are walked only if the oldest one not pending a requery
        may have expired: ``now - cached_at`` only shrinks as ``cached_at``
        grows, so no other entry can have expired if that one has not, and
        an entry pending a requery does nothing when walked.
        """
        ttl = self.default_ttl
        if self.policy not in TTL_POLICIES or ttl is None or now - self._oldest <= ttl:
            return []
        expired: list[str] = []
        oldest = math.inf
        for object_id in list(self.entries):
            entry = self.entries[object_id]
            if now - entry.cached_at <= ttl:
                if not entry.requery_pending and entry.cached_at < oldest:
                    oldest = entry.cached_at
            elif self.policy is PolicyKind.TTL_DROP:
                del self.entries[object_id]
                expired.append(object_id)
            elif not entry.requery_pending:
                entry.requery_pending = True
                expired.append(object_id)
        self._oldest = oldest
        return expired
