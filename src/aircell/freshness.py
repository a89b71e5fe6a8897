"""Source-side update statistics and the cached-copy freshness model.

A source keeps an ordered log of its write times. From the inter-update
intervals it derives the mean time between updates (MTBU), the population
standard deviation of those intervals, and the time of the last update.
Assuming normally distributed inter-update times, the probability that a
cached copy has been modified after an elapsed time t since the last source
write is the normal CDF evaluated at t; its complement is the probability
the copy is still current (P_NM), which is compared against a per-user,
per-object QoS setting in [0, 1].

The spread is the one statistic whose cost grows with the history: a
snapshot's standard deviation is folded over all its intervals. So a
snapshot handed out by ``UpdateLog.stats`` folds it only when it is first
read, which is when P_NM is first asked of the copy, and a snapshot that
no P_NM ever judges never folds.

P_NM is asked of a cached copy on every query that finds one, so
``p_not_modified_or_zero`` states the whole model in one call: the
history check, the elapsed time, the snapshot's spread (folded on first
use) and the normal tail, with no helper call between them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import InitVar, dataclass, field


_SQRT2 = math.sqrt(2.0)


class InsufficientHistory(Exception):
    """No write recorded: a source has no statistics to hand out."""


class NonMonotonicUpdate(ValueError):
    """An update was recorded at or before the previously recorded one."""


class InvariantError(RuntimeError):
    """A simulation invariant broke; an explicit check, so ``-O`` keeps it."""


class FreshnessStats:
    """Update statistics a source hands out with every read.

    mtbu and stdv_mtbu are in simulation time units; stdv_mtbu is the
    population standard deviation (divide by n) of the recorded intervals.
    A snapshot from ``UpdateLog.stats`` folds ``stdv_mtbu`` only when it is
    first read, from the log's first ``n_intervals`` intervals: the squared
    deviations added left to right from 0, as ``sum()`` adds floats before
    CPython 3.12 (whose ``sum()`` is compensated), and the square root of
    their mean.
    """

    __slots__ = ("mtbu", "_stdv", "t_last_update", "n_intervals", "_intervals")

    def __init__(self, mtbu: float, stdv_mtbu: float | None, t_last_update: float,
                 n_intervals: int, intervals: list[float] | None = None):
        # with ``stdv_mtbu`` None, ``intervals`` is the list whose first
        # ``n_intervals`` the spread is folded from; it may grow meanwhile
        self.mtbu = mtbu
        self._stdv = stdv_mtbu
        self.t_last_update = t_last_update
        self.n_intervals = n_intervals
        self._intervals = intervals

    @property
    def stdv_mtbu(self) -> float:
        stdv = self._stdv
        if stdv is None:
            intervals, n, mtbu = self._intervals, self.n_intervals, self.mtbu
            squares = 0
            for x in intervals if len(intervals) == n else intervals[:n]:
                squares += (x - mtbu) ** 2
            stdv = self._stdv = math.sqrt(squares / n)
            self._intervals = None
        return stdv


@dataclass
class UpdateLog:
    """Strictly increasing write times for one object at its source."""

    update_times: list[float] = field(default_factory=list)
    _memo: tuple[int, FreshnessStats] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _intervals: list[float] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _total: float = field(default=0, init=False, repr=False, compare=False)

    def record_update(self, t: float) -> "UpdateLog":
        if self.update_times and t <= self.update_times[-1]:
            raise NonMonotonicUpdate(
                f"update at t={t} not after previous t={self.update_times[-1]}"
            )
        self.update_times.append(float(t))
        return self

    def stats(self) -> FreshnessStats:
        """Derive MTBU / STDV / time-of-last-update from the log.

        Memoized on the log length. The log only grows, so a length change
        is exactly a new write, whether it came through ``record_update`` or
        a direct append to ``update_times``. A write adds one interval to
        the kept list and to their running total, which give the mean. The
        spread is not folded here: the snapshot folds it over its first
        ``n_intervals`` intervals when ``stdv_mtbu`` is first read, however
        far the log has grown by then.
        """
        n = len(self.update_times)
        if self._memo is None or self._memo[0] != n:
            self._memo = (n, self._compute_stats())
        return self._memo[1]

    def _compute_stats(self) -> FreshnessStats:
        if not self.update_times:
            raise InsufficientHistory("empty update log")
        times = self.update_times
        if len(times) == 1:
            return FreshnessStats(0.0, 0.0, times[-1], 0)
        intervals = self._intervals
        for i in range(len(intervals), len(times) - 1):
            intervals.append(times[i + 1] - times[i])
            self._total += intervals[-1]
        return FreshnessStats(self._total / len(intervals), None, times[-1],
                              len(intervals), intervals)


def p_not_modified_or_zero(stats: FreshnessStats, now: float) -> float:
    """P_NM: the probability the object has not changed since its last
    recorded source write, with insufficient history (fewer than two
    intervals) treated as certainly-modified (0.0).

    The complement of the standard normal CDF of (t - MTBU) / STDV with
    t = now - t_last_update. With zero spread the normal family degenerates
    to a step at the mean: 1 before MTBU has elapsed, 0 at or after. Cached
    copies without a usable probability estimate are acceptable only under
    a QoS setting of 0, which is the intended degenerate rule.
    """
    if stats.n_intervals < 2:
        return 0.0
    t = now - stats.t_last_update
    if t < 0:
        raise ValueError(f"now={now} precedes last update at {stats.t_last_update}")
    mtbu, stdv = stats.mtbu, stats._stdv
    if stdv is None:
        stdv = stats.stdv_mtbu
    if stdv == 0.0:
        return 1.0 if t < mtbu else 0.0
    return 1.0 - 0.5 * (1.0 + math.erf((t - mtbu) / stdv / _SQRT2))


def accepts(qos: float, p_nm: float) -> bool:
    """True when a copy's not-modified probability meets the QoS setting."""
    return p_nm >= qos


@dataclass
class SourceObject:
    """A data object at its source: its update history, and the writes it
    is scheduled to make (``schedule``, in increasing order).

    ``read`` and ``last_write`` at ``now`` first apply, through ``write``,
    each scheduled write due by ``now``, so a reader sees exactly the
    writes at or before its slot. A read hands out the history's stats,
    whose ``t_last_update`` is the write the reader sees. ``reachable``
    models a source that cannot currently be queried directly.
    """

    object_id: str
    log: UpdateLog = field(default_factory=UpdateLog)
    reachable: bool = True
    schedule: InitVar[Iterable[float]] = ()

    def __post_init__(self, schedule: Iterable[float]) -> None:
        self._schedule = iter(schedule)
        self._next_write = next(self._schedule, math.inf)

    def write(self, t: float) -> None:
        self.log.record_update(t)

    def last_write(self, now: float) -> float:
        """The time of the latest write at or before ``now``."""
        while self._next_write <= now:
            self.write(self._next_write)
            self._next_write = next(self._schedule, math.inf)
        if not self.log.update_times:
            raise InsufficientHistory(f"{self.object_id}: no writes recorded")
        return self.log.update_times[-1]

    def read(self, now: float) -> FreshnessStats:
        """A fresh source read at ``now``: the stats snapshot of the latest
        write at or before it."""
        self.last_write(now)
        return self.log.stats()
