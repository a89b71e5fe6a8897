import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aircell import cache, freshness, p2p, sim
from aircell.freshness import (
    FreshnessStats,
    InsufficientHistory,
    NonMonotonicUpdate,
    SourceObject,
    UpdateLog,
    accepts,
    p_not_modified_or_zero,
)
from oracles import fold, mean_and_pop_std, normal_cdf, p_not_modified_or_zero_reference

# frozen from the statistics oracle over intervals {100, 120, 80}
GOLDEN_MTBU = 100.0
GOLDEN_STDV = 16.32993161855452
# frozen from the quadrature CDF oracle at z = 2
PHI_2 = 0.9772498680518208


def stats(mtbu, stdv, t_last=0.0, n=10):
    return FreshnessStats(mtbu, stdv, t_last, n)


class TestUpdateLog:
    def test_first_update_leaves_no_interval(self):
        log = UpdateLog().record_update(10)
        assert log.update_times == [10]
        assert log.stats().n_intervals == 0

    def test_single_interval(self):
        log = UpdateLog([10.0]).record_update(110)
        s = log.stats()
        assert s.mtbu == 100.0
        assert s.stdv_mtbu == 0.0
        assert s.n_intervals == 1

    def test_population_statistics_match_oracle(self):
        log = UpdateLog([0.0, 100.0, 220.0, 300.0])
        s = log.stats()
        mean, std = mean_and_pop_std([100.0, 120.0, 80.0])
        assert s.mtbu == pytest.approx(mean, abs=1e-12)
        assert s.stdv_mtbu == pytest.approx(std, abs=1e-12)
        assert s.mtbu == GOLDEN_MTBU
        assert s.stdv_mtbu == pytest.approx(GOLDEN_STDV, abs=1e-12)
        assert s.t_last_update == 300.0

    def test_non_monotonic_rejected(self):
        log = UpdateLog([5.0])
        with pytest.raises(NonMonotonicUpdate):
            log.record_update(5.0)
        with pytest.raises(NonMonotonicUpdate):
            log.record_update(4.0)
        assert log.update_times == [5.0]

    def test_empty_log_has_no_stats(self):
        with pytest.raises(InsufficientHistory):
            UpdateLog().stats()


def values(stats: FreshnessStats) -> tuple[float, float, float, int]:
    """A snapshot's four statistics, reading (so folding) its spread."""
    return stats.mtbu, stats.stdv_mtbu, stats.t_last_update, stats.n_intervals


def fresh_stats(times: list[float]) -> tuple[float, float, float, int]:
    """The statistics of ``times`` computed from scratch, as ``values``."""
    if len(times) == 1:
        return 0.0, 0.0, times[-1], 0
    intervals = [b - a for a, b in zip(times, times[1:])]
    mean, std = mean_and_pop_std(intervals)
    return mean, std, times[-1], len(intervals)


class TestMemoizedStats:
    @settings(max_examples=100, deadline=None)
    @given(gaps=st.lists(
        st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=40,
    ))
    def test_equals_fresh_computation_after_every_write(self, gaps):
        log = UpdateLog()
        t = -1e3
        for gap in gaps:
            t += gap
            log.record_update(t)
            assert values(log.stats()) == fresh_stats(log.update_times)
            assert log.stats() is log.stats()

    def test_direct_append_invalidates(self):
        log = UpdateLog([0.0, 100.0, 220.0])
        before = log.stats()
        log.update_times.append(300.0)
        after = log.stats()
        assert values(after) != values(before)
        assert values(after) == fresh_stats([0.0, 100.0, 220.0, 300.0])
        assert after.mtbu == GOLDEN_MTBU

    @example(preset=[1.0, 100.0], steps=[
        ("stats", 1.0), ("append", 50.0), ("append", 20.0), ("record", 3.0),
        ("stats", 1.0), ("append", 7.0), ("append", 0.5), ("stats", 1.0),
    ])
    @settings(max_examples=100, deadline=None)
    @given(
        preset=st.lists(st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
                        min_size=1, max_size=6),
        steps=st.lists(st.tuples(
            st.sampled_from(["record", "append", "stats"]),
            st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
        ), max_size=40),
    )
    def test_kept_intervals_follow_interleaved_writes(self, preset, steps):
        times = [sum(preset[: i + 1]) for i in range(len(preset))]
        log = UpdateLog(times)
        for kind, gap in steps:
            t = log.update_times[-1] + gap
            if kind == "record":
                log.record_update(t)
            elif kind == "append":
                log.update_times.append(t)
            else:
                assert values(log.stats()) == fresh_stats(log.update_times)
        assert values(log.stats()) == fresh_stats(log.update_times)

    def test_kept_intervals_over_a_long_history(self, rng):
        log = UpdateLog([0.0])
        gaps = rng.exponential(100.0, size=4_999) + 1e-3
        for i, gap in enumerate(gaps, 1):
            log.record_update(log.update_times[-1] + float(gap))
            if i % 250 == 0:
                assert values(log.stats()) == fresh_stats(log.update_times)
        assert len(log.update_times) == 5_000
        assert values(log.stats()) == fresh_stats(log.update_times)


class TestDeferredSpread:
    """A snapshot folds its spread when it is first read, over the log's
    first ``n_intervals`` intervals, and must give the eager fold's float."""

    @example(steps=[("write", 5.0), ("write", 7.0), ("snapshot", 0), ("write", 1.0),
                    ("write", 30.0), ("snapshot", 0), ("read", 0), ("read", 1)])
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.one_of(
        st.tuples(st.just("write"),
                  st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("snapshot"), st.just(0)),
        st.tuples(st.just("read"), st.integers(0, 40)),
    ), max_size=60))
    def test_equals_the_eager_fold_however_late_it_is_read(self, steps):
        log = UpdateLog([0.0])
        taken = []  # each snapshot, with the log's write times when it was taken
        for kind, arg in steps:
            if kind == "write":
                log.record_update(log.update_times[-1] + arg)
            elif kind == "snapshot":
                taken.append((log.stats(), list(log.update_times)))
            elif taken:
                snap, times = taken[arg % len(taken)]
                assert snap.n_intervals == len(times) - 1
                assert snap.stdv_mtbu == fresh_stats(times)[1]
        for snap, times in taken:  # the rest are read only now
            assert values(snap) == fresh_stats(times)

    def test_folded_once_when_first_read(self):
        log = UpdateLog([0.0, 100.0, 220.0])
        snap = log.stats()
        assert snap._stdv is None
        log.record_update(300.0)
        assert snap.stdv_mtbu == 10.0  # of 100 and 120 only
        # the spread is kept, and the log's interval list released
        assert (snap._stdv, snap._intervals) == (10.0, None)
        assert snap.stdv_mtbu == 10.0

    def test_the_engine_folds_only_what_p_nm_judges(self, monkeypatch):
        made, judged = [], set()
        compute, p_nm = UpdateLog._compute_stats, p_not_modified_or_zero

        def recorded(self):
            made.append(compute(self))
            return made[-1]

        def judging(stats, now):
            judged.add(id(stats))
            return p_nm(stats, now)

        monkeypatch.setattr(UpdateLog, "_compute_stats", recorded)
        for module in (freshness, cache, p2p):
            monkeypatch.setattr(module, "p_not_modified_or_zero", judging)
        doc = {"seed": 3, "duration_slots": 3_000,
               "objects": {"count": 30, "mtbu_range": [20.0, 200.0]},
               "clients": [{"client_id": f"c{i}", "cache_capacity": 3,
                            "policy": ("acqf", "cqf", "lru", "ttl_requery")[i % 4],
                            "default_qos": 0.3, "request_rate": 0.08} for i in range(8)],
               "adjacency": {"kind": "ring", "degree": 2},
               "cache": {"default_ttl": 60.0}}
        sim.run(sim.scenario_from_dict(doc))
        # n_intervals < 2 gives P_NM 0 without reading the spread
        folded = {id(s) for s in made if s.n_intervals and s._stdv is not None}
        asked = {id(s) for s in made if s.n_intervals >= 2 and id(s) in judged}
        assert folded == asked
        assert 0 < len(folded) < len(made)


class TestModifiedProbability:
    """P_NM, the complement of the probability of a change since the last
    source write."""

    def test_half_at_mean_elapsed_time(self):
        assert p_not_modified_or_zero(stats(100, 20), now=100.0) == pytest.approx(0.5, abs=1e-9)

    def test_two_sigma_matches_cdf_oracle(self):
        got = p_not_modified_or_zero(stats(100, 20), now=140.0)
        assert got == pytest.approx(1.0 - normal_cdf(2.0), abs=1e-7)
        assert got == pytest.approx(1.0 - PHI_2, abs=1e-7)

    def test_far_tail_is_certain(self):
        assert p_not_modified_or_zero(stats(100, 20), now=300.0) < 1e-4

    def test_complement_is_exact(self):
        # the normal family is symmetric about the mean elapsed time
        for d in (0.0, 20.0, 23.4, 100.0):
            early = p_not_modified_or_zero(stats(100, 20), 100.0 - d)
            late = p_not_modified_or_zero(stats(100, 20, t_last=-d), 100.0)
            assert abs(early + late - 1.0) <= 1e-12

    def test_zero_spread_steps_at_mean(self):
        s = stats(100, 0)
        assert p_not_modified_or_zero(s, 99.999) == 1.0
        assert p_not_modified_or_zero(s, 100.0) == 0.0
        assert p_not_modified_or_zero(s, 250.0) == 0.0

    def test_insufficient_history(self):
        for n in (0, 1):  # the history is checked first: even before the last write
            assert p_not_modified_or_zero(stats(100, 20, n=n), now=50.0) == 0.0
            assert p_not_modified_or_zero(stats(100, 20, t_last=60.0, n=n), now=50.0) == 0.0
        with pytest.raises(InsufficientHistory):
            UpdateLog().stats()

    def test_now_before_last_update_rejected(self):
        with pytest.raises(ValueError):
            p_not_modified_or_zero(stats(100, 20, t_last=50.0), now=10.0)

    def test_nondecreasing_in_now(self, rng):
        # the probability of a change, 1 - P_NM, only grows with the elapsed time
        for _ in range(50):
            mtbu = float(rng.uniform(10, 500))
            stdv = float(rng.uniform(0.5, mtbu / 2))
            s = stats(mtbu, stdv)
            times = np.sort(rng.uniform(0, 4 * mtbu, size=40))
            values = [1.0 - p_not_modified_or_zero(s, t) for t in times]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_monte_carlo_agreement(self, rng):
        n = 20_000
        draws = rng.normal(100, 20, size=n)
        while (draws <= 0).any():
            bad = draws <= 0
            draws[bad] = rng.normal(100, 20, size=int(bad.sum()))
        s = stats(100, 20)
        for t in (80.0, 100.0, 120.0):
            unchanged = float((draws > t).mean())
            assert abs(unchanged - p_not_modified_or_zero(s, t)) <= 0.02

    @settings(max_examples=300, deadline=None)
    @given(
        intervals=st.one_of(
            st.lists(st.floats(0.5, 500.0), max_size=12),
            # integral intervals add exactly: a mean with no spread
            st.builds(lambda c, n: [float(c)] * n, st.integers(1, 300), st.integers(0, 12)),
        ),
        t_last=st.integers(-1000, 1000).map(float),
        elapsed=st.floats(-200.0, 2000.0),
    )
    @example(intervals=[], t_last=0.0, elapsed=5.0)
    @example(intervals=[40.0], t_last=0.0, elapsed=-5.0)
    @example(intervals=[40.0, 40.0], t_last=0.0, elapsed=39.0)
    @example(intervals=[40.0, 40.0], t_last=0.0, elapsed=40.0)
    @example(intervals=[40.0, 40.0], t_last=0.0, elapsed=41.0)
    @example(intervals=[30.0, 50.0], t_last=10.0, elapsed=0.0)
    @example(intervals=[30.0, 50.0], t_last=10.0, elapsed=-1.0)
    def test_bit_exact_against_the_reference(self, intervals, t_last, elapsed):
        """Equal to the reference by ``==`` and by the sign of zero, on a
        snapshot whose spread is folded on first use and on one handed its
        spread; the first call folds it, and the second reads the fold."""
        n = len(intervals)
        mtbu = fold(intervals) / n if n else 0.0
        if n:
            lazy = FreshnessStats(mtbu, None, t_last, n, list(intervals))
        else:  # what a log of one write hands out
            lazy = FreshnessStats(0.0, 0.0, t_last, 0)
        stdv = math.sqrt(fold((x - mtbu) ** 2 for x in intervals) / n) if n else 0.0
        given_spread = FreshnessStats(mtbu, stdv, t_last, n)
        now = t_last + elapsed
        if n >= 2 and now < t_last:
            with pytest.raises(ValueError):
                p_not_modified_or_zero(lazy, now)
            with pytest.raises(ValueError):
                p_not_modified_or_zero_reference(given_spread, now)
            return
        want = p_not_modified_or_zero_reference(given_spread, now)
        for _ in range(2):
            got = p_not_modified_or_zero(lazy, now)
            assert got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
            if n >= 2:  # folded once: the kept intervals are gone
                assert lazy._intervals is None and lazy._stdv == stdv


class TestAccepts:
    def test_boundary_meets_qos(self):
        assert accepts(0.3, 0.3)

    def test_zero_qos_accepts_anything(self):
        for p in (0.0, 0.01, 0.5, 1.0):
            assert accepts(0.0, p)

    def test_full_qos_needs_certainty(self):
        assert not accepts(1.0, 0.999999)
        assert accepts(1.0, 1.0)


class TestSourceObject:
    def test_read_returns_payload_and_snapshot(self):
        src = SourceObject("weather")
        for t in (0.0, 90.0, 210.0):
            src.write(t)
        snap = src.read(now=300.0)
        assert snap.t_last_update == 210.0
        assert snap.n_intervals == 2

    def test_writes_must_advance(self):
        src = SourceObject("x")
        src.write(5.0)
        with pytest.raises(NonMonotonicUpdate):
            src.write(5.0)

    @settings(max_examples=100, deadline=None)
    @given(
        start=st.floats(-500.0, 50.0),
        gaps=st.lists(st.floats(0.5, 200.0), max_size=40),
        steps=st.lists(st.tuples(st.sampled_from(["read", "last_write"]),
                                 st.floats(0.0, 300.0)), min_size=1, max_size=20),
    )
    def test_a_schedule_is_writes_made_by_hand(self, start, gaps, steps):
        times = [start]
        for gap in gaps:
            times.append(times[-1] + gap)
        scheduled = SourceObject("x", schedule=iter(times))  # a one-shot iterator will do
        by_hand, pending = SourceObject("x"), list(times)
        now = 0.0
        for method, step in steps:
            now += step  # readers come in slot order
            while pending and pending[0] <= now:
                by_hand.write(pending.pop(0))
            if not by_hand.log.update_times:
                with pytest.raises(InsufficientHistory):
                    getattr(scheduled, method)(now)
                continue
            if method == "read":
                assert values(scheduled.read(now)) == values(by_hand.read(now))
            else:
                assert scheduled.last_write(now) == by_hand.log.update_times[-1]
            assert scheduled.log.update_times == by_hand.log.update_times

    def test_due_writes_go_through_write(self, monkeypatch):
        written, write = [], SourceObject.write

        def counted(self, t):
            written.append(t)
            write(self, t)

        monkeypatch.setattr(SourceObject, "write", counted)
        src = SourceObject("x", schedule=(-20.0, -10.0, 0.0, 10.0, 20.0))
        assert src.last_write(0.0) == 0.0
        assert src.read(15.0).t_last_update == 10.0
        assert written == [-20.0, -10.0, 0.0, 10.0]  # 20.0 is not due yet
