import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aircell.freshness import (
    FreshnessStats,
    InsufficientHistory,
    NonMonotonicUpdate,
    SourceObject,
    UpdateLog,
    accepts,
    p_modified,
    p_not_modified,
    p_not_modified_or_zero,
)
from oracles import mean_and_pop_std, normal_cdf

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
        assert log.n_intervals == 0

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


def fresh_stats(times: list[float]) -> FreshnessStats:
    if len(times) == 1:
        return FreshnessStats(0.0, 0.0, times[-1], 0)
    intervals = [b - a for a, b in zip(times, times[1:])]
    mean, std = mean_and_pop_std(intervals)
    return FreshnessStats(mean, std, times[-1], len(intervals))


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
            assert log.stats() == fresh_stats(log.update_times)
            assert log.stats() == log.stats()

    def test_direct_append_invalidates(self):
        log = UpdateLog([0.0, 100.0, 220.0])
        before = log.stats()
        log.update_times.append(300.0)
        after = log.stats()
        assert after != before
        assert after == fresh_stats([0.0, 100.0, 220.0, 300.0])
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
                assert log.stats() == fresh_stats(log.update_times)
        assert log.stats() == fresh_stats(log.update_times)

    def test_kept_intervals_over_a_long_history(self, rng):
        log = UpdateLog([0.0])
        gaps = rng.exponential(100.0, size=4_999) + 1e-3
        for i, gap in enumerate(gaps, 1):
            log.record_update(log.update_times[-1] + float(gap))
            if i % 250 == 0:
                assert log.stats() == fresh_stats(log.update_times)
        assert len(log.update_times) == 5_000
        assert log.stats() == fresh_stats(log.update_times)


class TestModifiedProbability:
    def test_half_at_mean_elapsed_time(self):
        assert p_modified(stats(100, 20), now=100.0) == pytest.approx(0.5, abs=1e-9)

    def test_two_sigma_matches_cdf_oracle(self):
        got = p_modified(stats(100, 20), now=140.0)
        assert got == pytest.approx(normal_cdf(2.0), abs=1e-7)
        assert got == pytest.approx(PHI_2, abs=1e-7)

    def test_far_tail_is_certain(self):
        assert p_modified(stats(100, 20), now=300.0) > 0.9999

    def test_complement_is_exact(self):
        for now in (80.0, 100.0, 123.4, 500.0):
            pm = p_modified(stats(100, 20), now)
            pnm = p_not_modified(stats(100, 20), now)
            assert abs(pm + pnm - 1.0) <= 1e-12

    def test_zero_spread_steps_at_mean(self):
        s = stats(100, 0)
        assert p_modified(s, 99.999) == 0.0
        assert p_modified(s, 100.0) == 1.0
        assert p_modified(s, 250.0) == 1.0

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            p_modified(stats(100, 20, n=1), now=50.0)
        assert p_not_modified_or_zero(stats(100, 20, n=1), now=50.0) == 0.0

    def test_now_before_last_update_rejected(self):
        with pytest.raises(ValueError):
            p_modified(stats(100, 20, t_last=50.0), now=10.0)

    def test_nondecreasing_in_now(self, rng):
        for _ in range(50):
            mtbu = float(rng.uniform(10, 500))
            stdv = float(rng.uniform(0.5, mtbu / 2))
            s = stats(mtbu, stdv)
            times = np.sort(rng.uniform(0, 4 * mtbu, size=40))
            values = [p_modified(s, t) for t in times]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_monte_carlo_agreement(self, rng):
        n = 20_000
        draws = rng.normal(100, 20, size=n)
        while (draws <= 0).any():
            bad = draws <= 0
            draws[bad] = rng.normal(100, 20, size=int(bad.sum()))
        s = stats(100, 20)
        for t in (80.0, 100.0, 120.0):
            empirical = float((draws <= t).mean())
            assert abs(empirical - p_modified(s, t)) <= 0.02


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
                assert scheduled.read(now) == by_hand.read(now)
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
