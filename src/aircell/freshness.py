"""Source-side update statistics and the cached-copy freshness model.

A source keeps an ordered log of its write times. From the inter-update
intervals it derives the mean time between updates (MTBU), the population
standard deviation of those intervals, and the time of the last update.
Assuming normally distributed inter-update times, the probability that a
cached copy has been modified after an elapsed time t since the last source
write is the normal CDF evaluated at t; its complement is the probability
the copy is still current (P_NM), which is compared against a per-user,
per-object QoS setting in [0, 1].
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import InitVar, dataclass, field


class InsufficientHistory(Exception):
    """Fewer than two inter-update intervals: no basis for a probability."""


class NonMonotonicUpdate(ValueError):
    """An update was recorded at or before the previously recorded one."""


class InvariantError(RuntimeError):
    """A simulation invariant broke; an explicit check, so ``-O`` keeps it."""


@dataclass(frozen=True)
class FreshnessStats:
    """Update statistics a source hands out with every read.

    mtbu and stdv_mtbu are in simulation time units; stdv_mtbu is the
    population standard deviation (divide by n) of the recorded intervals.
    """

    mtbu: float
    stdv_mtbu: float
    t_last_update: float
    n_intervals: int


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

    def record_update(self, t: float) -> "UpdateLog":
        if self.update_times and t <= self.update_times[-1]:
            raise NonMonotonicUpdate(
                f"update at t={t} not after previous t={self.update_times[-1]}"
            )
        self.update_times.append(float(t))
        return self

    @property
    def n_intervals(self) -> int:
        return max(0, len(self.update_times) - 1)

    def stats(self) -> FreshnessStats:
        """Derive MTBU / STDV / time-of-last-update from the log.

        Memoized on the log length. The log only grows, so a length change
        is exactly a new write, whether it came through ``record_update`` or
        a direct append to ``update_times``. The intervals are kept between
        refreshes and a write adds one to the kept list; the mean and the
        variance are summed over that list in order, so the floats are
        those of a full recomputation.
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
        intervals.extend([times[i + 1] - times[i]
                          for i in range(len(intervals), len(times) - 1)])
        n = len(intervals)
        mtbu = sum(intervals) / n
        var = sum([(x - mtbu) ** 2 for x in intervals]) / n
        return FreshnessStats(mtbu, math.sqrt(var), times[-1], n)


def p_modified(stats: FreshnessStats, now: float) -> float:
    """Probability the object changed since its last recorded source write.

    Computed as the standard normal CDF of (t - MTBU) / STDV with
    t = now - t_last_update. With zero spread the normal family degenerates
    to a step at the mean: 0 before MTBU has elapsed, 1 at or after.
    """
    if stats.n_intervals < 2:
        raise InsufficientHistory(
            f"{stats.n_intervals} interval(s) recorded; need at least 2"
        )
    t = now - stats.t_last_update
    if t < 0:
        raise ValueError(f"now={now} precedes last update at {stats.t_last_update}")
    if stats.stdv_mtbu == 0.0:
        return 0.0 if t < stats.mtbu else 1.0
    z = (t - stats.mtbu) / stats.stdv_mtbu
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def p_not_modified(stats: FreshnessStats, now: float) -> float:
    """Complement of p_modified; P_NM + P_M is exactly 1."""
    return 1.0 - p_modified(stats, now)


def p_not_modified_or_zero(stats: FreshnessStats, now: float) -> float:
    """P_NM, with insufficient history treated as certainly-modified (0.0).

    Cached copies without a usable probability estimate are then acceptable
    only under a QoS setting of 0, which is the intended degenerate rule.
    """
    return 0.0 if stats.n_intervals < 2 else 1.0 - p_modified(stats, now)


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
