from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aircell.cache import (
    CacheEntry,
    ClientCache,
    PolicyKind,
    ReadStats,
    ReadTracker,
)
from aircell.freshness import FreshnessStats, InvariantError, p_not_modified_or_zero
from oracles import (
    ClientCacheReference,
    lru_reference,
    read_stats_reference,
    score_admission_replay,
    ttl_tick_reference,
)


def stats(mtbu, stdv=0.0, t_last=0.0, n=10):
    return FreshnessStats(mtbu, stdv, t_last, n)


def entry(oid, mtbu=100.0, cached_at=0.0, stdv=0.0, t_last=0.0):
    return CacheEntry(oid, stats(mtbu, stdv, t_last), cached_at)


def reads_every(tracker: ReadTracker, oid: str, period: float, n: int, t0=0.0):
    for i in range(n):
        tracker.record(t0 + i * period, oid)


def scored_cache(policy, qos=0.0):
    return ClientCache(4, policy, default_qos=qos)


def score_of(cache: ClientCache, e, now: float) -> float:
    """One entry's score through the batch ``score`` that ``insert`` calls."""
    [(score, cached_at, oid)] = cache.score([(e.object_id, e)], now)
    assert (cached_at, oid) == (e.cached_at, e.object_id)
    return score


class TestScores:
    def test_cqf_is_update_over_read_interval(self):
        cache = scored_cache(PolicyKind.CQF)
        reads_every(cache.reads, "a", 50.0, 5)
        assert score_of(cache, entry("a", mtbu=200.0), 200.0) == 4.0

    def test_cqf_below_one_for_hot_updates(self):
        cache = scored_cache(PolicyKind.CQF)
        reads_every(cache.reads, "a", 200.0, 5)
        assert score_of(cache, entry("a", mtbu=50.0), 800.0) == 0.25

    def test_cqf_zero_without_reads(self):
        cache = scored_cache(PolicyKind.CQF)
        assert score_of(cache, entry("ghost", mtbu=500.0), 0.0) == 0.0
        cache.reads.record(0.0, "once")
        assert score_of(cache, entry("once", mtbu=500.0), 0.0) == 0.0

    def test_acqf_examples(self):
        # read share 1/5, P_NM 1 (mtbu not yet elapsed), QoS 0.3
        cache = scored_cache(PolicyKind.ACQF, qos=0.3)
        for oid in "abcde":
            cache.reads.record(0.0, oid)
        assert score_of(cache, entry("a", mtbu=100.0), 50.0) == pytest.approx(0.14)
        # read share 1/2, P_NM 1/2 (mtbu elapsed exactly, with spread), QoS 0.9
        cache = scored_cache(PolicyKind.ACQF, qos=0.9)
        for oid in "ab":
            cache.reads.record(0.0, oid)
        assert score_of(cache, entry("a", mtbu=100.0, stdv=10.0), 100.0) == pytest.approx(-0.2)
        # unread
        cache = scored_cache(PolicyKind.ACQF, qos=0.01)
        assert score_of(cache, entry("a", mtbu=100.0), 50.0) == 0.0

    def test_acqf_negative_iff_qos_fails_and_read(self, rng):
        for _ in range(200):
            qos = float(rng.uniform(0, 1))
            cache = scored_cache(PolicyKind.ACQF, qos=qos)
            for t in range(int(rng.integers(1, 20))):
                cache.reads.record(float(t), "a" if rng.random() < 0.5 else "b")
            cache.reads.record(20.0, "a")
            copy = entry("a", mtbu=100.0, stdv=float(rng.uniform(1, 50)))
            now = float(rng.uniform(0, 200))
            p_nm = p_not_modified_or_zero(copy.source_stats_snapshot, now)
            score = score_of(cache, copy, now)
            assert (score < 0) == (p_nm < qos)
            assert -1.0 <= score <= 1.0

    @pytest.mark.parametrize(
        "policy", [PolicyKind.LRU, PolicyKind.TTL_DROP, PolicyKind.TTL_REQUERY]
    )
    def test_unscored_policies_have_no_score(self, policy):
        with pytest.raises(ValueError, match="has no score"):
            ClientCache(4, policy).score([("a", entry("a"))], now=0.0)


class TestReadTracker:
    def test_read_shares_sum_to_one(self, rng):
        tracker = ReadTracker(window=64)
        objects = [f"o{i}" for i in range(6)]
        for t in range(200):
            tracker.record(float(t), objects[int(rng.integers(0, 6))])
        total = sum(tracker.stats_for(o).f_r for o in objects)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_window_bounds_history(self):
        tracker = ReadTracker(window=4)
        for t in range(10):
            tracker.record(float(t), "old" if t < 6 else "new")
        assert tracker.stats_for("old").n_reads == 0
        assert tracker.stats_for("new").n_reads == 4

    @settings(max_examples=200, deadline=None)
    @given(
        window=st.integers(2, 16),
        reads=st.lists(
            st.tuples(
                st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False),
                st.sampled_from("abcde"),
            ),
            max_size=60,
        ),
    )
    def test_matches_full_window_rescan(self, window, reads):
        tracker = ReadTracker(window=window)
        for i, (t, oid) in enumerate(reads):
            tracker.record(t, oid)
            for probe in "abcdef":
                expected = ReadStats(*read_stats_reference(reads[: i + 1], window, probe))
                assert tracker.stats_for(probe) == expected

    # window 3: the slide past the fourth read thins "a" from [0, 1, 1] to
    # [1, 1] (MTBR 0.5 -> 0.0), the fifth removes its next-to-last read and
    # the sixth its last; "a" then returns with two fresh reads
    @example(window=3, every=1, reads=[
        (0.0, "a"), (1.0, "a"), (0.0, "a"), (1.0, "b"), (0.0, "b"), (1.0, "b"),
        (6.0, "a"), (2.0, "a"),
    ])
    # window 4, probed every third read: "a" is memoized at [0, 1, 1], then
    # three unprobed reads slide out two of its reads before the next probe
    @example(window=4, every=3, reads=[
        (0.0, "a"), (1.0, "a"), (0.0, "a"), (0.0, "b"), (1.0, "b"), (0.0, "b"),
        (7.0, "b"), (0.0, "a"), (1.0, "a"),
    ])
    @settings(max_examples=300, deadline=None)
    @given(
        window=st.integers(2, 12),
        every=st.integers(1, 9),
        reads=st.lists(
            st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0, 7.25]), st.sampled_from("abcd")),
            max_size=80,
        ),
    )
    def test_sparse_probes_match_full_window_rescan(self, window, every, reads):
        # probing after every read refreshes each memo before it can go
        # stale; here several reads, and slides, pass between probes
        tracker = ReadTracker(window=window)
        seen = []
        t = 0.0
        for i, (gap, oid) in enumerate(reads, 1):
            t += gap
            tracker.record(t, oid)
            seen.append((t, oid))
            if i % every == 0:
                for probe in "abcde":
                    expected = ReadStats(*read_stats_reference(seen, window, probe))
                    assert tracker.stats_for(probe) == expected


class TestReadRecording:
    @pytest.mark.parametrize(
        "policy", [PolicyKind.LRU, PolicyKind.TTL_DROP, PolicyKind.TTL_REQUERY]
    )
    def test_unscored_policies_leave_the_window_empty(self, policy):
        cache = ClientCache(4, policy)
        for t in range(10):
            cache.record_read("a", float(t))
        assert cache.reads.stats_for("a") == ReadStats(None, 0.0, 0)

    @pytest.mark.parametrize("policy", [PolicyKind.CQF, PolicyKind.ACQF])
    def test_scored_policies_record_every_read(self, policy):
        cache = ClientCache(4, policy)
        for t in range(10):
            cache.record_read("a", float(t))
        assert cache.reads.stats_for("a") == ReadStats(1.0, 1.0, 10)


class TestCacheEntry:
    def test_copy_predating_its_write_is_an_invariant_error(self):
        with pytest.raises(InvariantError):
            entry("a", cached_at=5.0, t_last=6.0)

    def test_copy_at_its_write_is_accepted(self):
        assert entry("a", cached_at=6.0, t_last=6.0).cached_at == 6.0


class TestScoredAdmission:
    def make_cqf_cache(self):
        cache = ClientCache(2, PolicyKind.CQF)
        reads_every(cache.reads, "low", 50.0, 4)    # cqf 2.0 with mtbu 100
        reads_every(cache.reads, "high", 50.0, 4)   # cqf 6.0 with mtbu 300
        reads_every(cache.reads, "mid", 50.0, 4)    # cqf 4.0 with mtbu 200
        cache.insert(entry("low", mtbu=100.0, cached_at=0.0), now=0.0)
        cache.insert(entry("high", mtbu=300.0, cached_at=1.0), now=1.0)
        return cache

    def test_better_score_displaces_minimum(self):
        cache = self.make_cqf_cache()
        report = cache.insert(entry("mid", mtbu=200.0, cached_at=2.0), now=2.0)
        assert report.admitted and report.evicted == "low"
        assert set(cache.entries) == {"high", "mid"}

    def test_worse_score_is_rejected(self):
        cache = self.make_cqf_cache()
        reads_every(cache.reads, "weak", 50.0, 4)   # cqf 1.0 with mtbu 50
        report = cache.insert(entry("weak", mtbu=50.0, cached_at=2.0), now=2.0)
        assert not report.admitted
        assert set(cache.entries) == {"low", "high"}

    def test_no_eviction_below_capacity(self):
        cache = ClientCache(3, PolicyKind.CQF)
        for i, oid in enumerate(["a", "b", "c"]):
            report = cache.insert(entry(oid, cached_at=float(i)), now=float(i))
            assert report.admitted and report.evicted is None
        assert len(cache.entries) == 3

    def test_tie_evicts_oldest(self):
        cache = ClientCache(2, PolicyKind.CQF)
        cache.insert(entry("a", cached_at=0.0), now=0.0)      # score 0 (unread)
        cache.insert(entry("b", cached_at=1.0), now=1.0)      # score 0 (unread)
        reads_every(cache.reads, "c", 50.0, 4)
        report = cache.insert(entry("c", mtbu=100.0, cached_at=2.0), now=2.0)
        assert report.admitted and report.evicted == "a"

    def test_matches_admission_replay_oracle(self, rng):
        for _ in range(25):
            capacity = int(rng.integers(2, 6))
            cache = ClientCache(capacity, PolicyKind.CQF)
            offers = []
            for i in range(20):
                oid = f"o{i}"
                period = float(rng.uniform(5.0, 50.0))
                mtbu = float(rng.uniform(10.0, 500.0))
                reads_every(cache.reads, oid, period, 4)
                score = mtbu / period
                offers.append((oid, score, float(i)))
                cache.insert(entry(oid, mtbu=mtbu, cached_at=float(i)), now=float(i))
            assert set(cache.entries) == score_admission_replay(capacity, offers)

    def test_distinct_scores_keep_top_k(self, rng):
        capacity = 4
        cache = ClientCache(capacity, PolicyKind.CQF)
        mtbus = rng.permutation(np.arange(1, 16) * 40.0)
        scores = {}
        for i, mtbu in enumerate(mtbus):
            oid = f"o{i}"
            reads_every(cache.reads, oid, 10.0, 4)
            scores[oid] = float(mtbu) / 10.0
            cache.insert(entry(oid, mtbu=float(mtbu), cached_at=float(i)), now=float(i))
        expected = set(sorted(scores, key=scores.get, reverse=True)[:capacity])
        assert set(cache.entries) == expected

    def test_acqf_policy_prefers_qos_satisfying_entries(self):
        cache = ClientCache(1, PolicyKind.ACQF, qos_overrides={"fails": 0.9, "meets": 0.2})
        reads_every(cache.reads, "fails", 10.0, 4)
        reads_every(cache.reads, "meets", 10.0, 4)
        # both copies fresh enough that p_nm ~ 1 at now=40
        cache.insert(entry("fails", mtbu=1e6, stdv=1.0, cached_at=40.0), now=40.0)
        report = cache.insert(entry("meets", mtbu=1e6, stdv=1.0, cached_at=40.0), now=40.0)
        assert report.admitted and report.evicted == "fails"


_OIDS = "abcdefghij"
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.sampled_from(_OIDS)),
        # a copy whose snapshot has mtbu, stdv, the age of its write, and
        # n_intervals, cached now; 0 and 1 intervals score P_NM 0. Mostly
        # the owner read it first (a miss), else it was overheard
        st.tuples(st.just("insert"), st.sampled_from(_OIDS),
                  st.sampled_from([25.0, 10.0, 40.0]), st.sampled_from([15.0, 4.0, 0.0]),
                  st.sampled_from([12.5, 3.0, 60.0, 0.0]), st.sampled_from([9, 2, 1, 0]),
                  st.sampled_from([True, True, True, False])),
        # time moves only here, so reads and copies often share a time
        st.tuples(st.just("tick"), st.sampled_from([7.0, 1.0, 0.5, 0.0])),
    ),
    min_size=10,
    max_size=80,
)


class TestOnePassScoring:
    """A full cache is scored in one pass per policy; the reference scores
    it one ``score`` call per entry, as ``insert`` did before."""

    @settings(max_examples=300, deadline=None)
    @given(
        policy=st.sampled_from([PolicyKind.CQF, PolicyKind.ACQF]),
        capacity=st.integers(1, 8),
        window=st.integers(2, 12),
        default_qos=st.sampled_from([0.0, 0.3, 1.0]),
        overrides=st.dictionaries(st.sampled_from(_OIDS), st.sampled_from([0.0, 0.5, 0.9])),
        steps=_STEPS,
    )
    # two unread copies tie at score 0; the older one goes
    @example(PolicyKind.CQF, 2, 4, 0.0, {}, [
        ("insert", "a", 10.0, 0.0, 0.0, 9, False), ("insert", "b", 10.0, 0.0, 0.0, 9, False),
        ("read", "c"), ("tick", 1.0), ("insert", "c", 10.0, 0.0, 0.0, 9, True),
    ])
    # an aged copy is scored at its P_NM now, not when it was cached
    @example(PolicyKind.ACQF, 1, 4, 0.3, {}, [
        ("insert", "a", 25.0, 15.0, 12.5, 9, True), ("tick", 7.0),
        ("insert", "b", 25.0, 15.0, 12.5, 9, True),
    ])
    def test_matches_the_per_entry_scores(
        self, policy, capacity, window, default_qos, overrides, steps
    ):
        def qos_for(oid):
            return overrides.get(oid, default_qos)

        cache = ClientCache(capacity, policy, default_qos, overrides, read_window=window)
        reference = ClientCacheReference(capacity, policy, qos_for, read_window=window)
        now = 0.0
        for step in steps:
            if step[0] == "read":
                for c in (cache, reference):
                    c.record_read(step[1], now)
                    c.get(step[1], now)
            elif step[0] == "insert":
                _, oid, mtbu, stdv, age, n, read_first = step
                copy = CacheEntry(oid, stats(mtbu, stdv, now - age, n), cached_at=now)
                if read_first:
                    for c in (cache, reference):
                        c.record_read(oid, now)
                # bit-exact: the one pass and the per-entry scores are equal floats
                offered = [(oid, copy), *cache.entries.items()]
                assert cache.score(offered, now) == [
                    (reference.score_one(e, now), e.cached_at, o) for o, e in offered]
                assert repr(cache.insert(copy, now)) == repr(reference.insert(copy, now))
            else:
                now += step[1]
                assert cache.tick(now) == reference.tick(now) == []
            assert list(cache.entries.items()) == list(reference.entries.items())


class TestLruPolicy:
    def test_matches_reference_trace(self, rng):
        for _ in range(30):
            capacity = int(rng.integers(1, 6))
            cache = ClientCache(capacity, PolicyKind.LRU)
            accesses = []
            evictions = []
            for step in range(60):
                oid = f"o{int(rng.integers(0, 10))}"
                if rng.random() < 0.5:
                    accesses.append(("get", oid))
                    cache.get(oid, float(step))
                else:
                    accesses.append(("put", oid))
                    report = cache.insert(entry(oid, cached_at=float(step)), now=float(step))
                    if report.evicted is not None:
                        evictions.append(report.evicted)
            ref_keys, ref_evictions = lru_reference(capacity, accesses)
            assert list(cache.entries) == ref_keys
            assert evictions == ref_evictions

    def test_capacity_never_exceeded(self, rng):
        cache = ClientCache(3, PolicyKind.LRU)
        for step in range(100):
            cache.insert(entry(f"o{int(rng.integers(0, 20))}", cached_at=float(step)),
                         now=float(step))
            assert len(cache.entries) <= 3


class TestTtlPolicies:
    def test_drop_after_ttl_strictly(self):
        cache = ClientCache(4, PolicyKind.TTL_DROP, default_ttl=50.0)
        cache.insert(entry("a", cached_at=0.0), now=0.0)
        assert cache.tick(now=50.0) == []      # boundary: age == ttl is kept
        assert cache.tick(now=51.0) == ["a"]
        assert "a" not in cache.entries

    def test_requery_emitted_once(self):
        cache = ClientCache(4, PolicyKind.TTL_REQUERY, default_ttl=50.0)
        cache.insert(entry("a", cached_at=0.0), now=0.0)
        assert cache.tick(now=51.0) == ["a"]
        assert cache.entries["a"].requery_pending
        assert cache.tick(now=52.0) == []      # pending; not re-emitted
        assert "a" in cache.entries            # entry stays until refreshed
        cache.insert(entry("a", cached_at=60.0), now=60.0)
        assert cache.tick(now=61.0) == []

    def test_default_ttl_applies(self):
        cache = ClientCache(4, PolicyKind.TTL_DROP, default_ttl=10.0)
        cache.insert(entry("a", cached_at=0.0), now=0.0)
        assert cache.tick(now=11.0) == ["a"]

    def test_non_ttl_policies_never_tick(self):
        cache = ClientCache(4, PolicyKind.LRU, default_ttl=1.0)
        cache.insert(entry("a", cached_at=0.0), now=0.0)
        assert cache.tick(now=100.0) == []

    def test_tick_walks_only_when_an_entry_may_have_expired(self):
        walks = []

        class Entries(OrderedDict):
            def __iter__(self):
                walks.append(1)
                return super().__iter__()

        cache = ClientCache(4, PolicyKind.TTL_REQUERY, default_ttl=10.0)
        cache.entries = Entries()
        cache.insert(entry("a", cached_at=0.0), now=0.0)
        cache.insert(entry("b", cached_at=5.0), now=5.0)
        assert [cache.tick(float(t)) for t in range(11)] == [[]] * 11
        assert walks == []
        assert cache.tick(11.0) == ["a"]
        assert len(walks) == 1
        assert [cache.tick(float(t)) for t in range(12, 16)] == [[]] * 4
        assert len(walks) == 1  # "a" is pending and "b" is not yet due
        assert cache.tick(16.0) == ["b"]

    def test_next_expiry_is_the_first_time_a_tick_may_act(self):
        cache = ClientCache(4, PolicyKind.TTL_REQUERY, default_ttl=10.0)
        assert cache.next_expiry() == float("inf")  # empty
        cache.insert(entry("a", cached_at=0.0), now=0.0)
        cache.insert(entry("b", cached_at=5.0), now=5.0)  # a later insert keeps it
        assert cache.next_expiry() == 11  # age 11 is the first above the ttl
        assert cache.tick(10.0) == []
        assert cache.tick(11.0) == ["a"]
        assert cache.next_expiry() == 16  # "a" is pending, "b" is next
        cache.insert(entry("a", cached_at=12.0), now=12.0)  # the refresh
        assert cache.next_expiry() == 16
        fractional = ClientCache(4, PolicyKind.TTL_DROP, default_ttl=7.25)
        fractional.insert(entry("a", cached_at=3.0), now=3.0)
        assert fractional.next_expiry() == 11
        assert fractional.tick(10.0) == [] and fractional.tick(11.0) != []

    @pytest.mark.parametrize("policy", [PolicyKind.TTL_DROP, PolicyKind.TTL_REQUERY])
    def test_wake_fires_when_the_first_tick_time_turns_finite(self, policy):
        cache = ClientCache(4, policy, default_ttl=10.0)
        wakes = []
        cache.wake = lambda: wakes.append(cache.next_expiry())
        cache.insert(entry("a", cached_at=3.0), now=3.0)
        assert wakes == [14]  # the first insert into an empty cache
        cache.insert(entry("b", cached_at=1.0), now=5.0)  # lowers a finite time
        assert cache.next_expiry() == 12
        assert cache.tick(12.0) == ["b"]
        cache.insert(entry("c", cached_at=12.0), now=12.0)
        assert wakes == [14]  # while the first tick time is finite, no insert wakes
        assert cache.tick(23.0) == ["a", "c"]
        assert cache.next_expiry() == float("inf")  # no copy left that is not pending
        cache.insert(entry("d", cached_at=23.0), now=23.0)
        cache.insert(entry("e", cached_at=24.0), now=24.0)
        assert wakes == [14, 34]

    @pytest.mark.parametrize("policy, ttl", [
        (PolicyKind.LRU, 1.0), (PolicyKind.TTL_DROP, None),
        (PolicyKind.TTL_REQUERY, float("inf")),
    ])
    def test_no_expiry_where_tick_never_acts(self, policy, ttl):
        cache = ClientCache(4, policy, default_ttl=ttl)
        cache.insert(entry("a", cached_at=0.0), now=0.0)
        assert cache.next_expiry() == float("inf")

    @settings(max_examples=200, deadline=None)
    @given(
        drop=st.booleans(),
        ttl=st.sampled_from([0.5, 3.0, 7.25, float("inf")]),
        steps=st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from("abcdef"), st.integers(0, 4)),
            max_size=60,
        ),
    )
    def test_matches_a_walk_over_every_entry(self, drop, ttl, steps):
        # both caches see the same inserts at nondecreasing times; one ticks,
        # the other's entries are walked whole by the reference
        policy = PolicyKind.TTL_DROP if drop else PolicyKind.TTL_REQUERY
        cache, mirror = (ClientCache(3, policy, default_ttl=ttl) for _ in range(2))
        now = 0.0
        for advance, oid, age in steps:
            now += advance
            if age < 3:  # insert a copy cached ``age`` slots ago
                for c in (cache, mirror):
                    c.insert(entry(oid, cached_at=max(now - age, 0.0)), now)
            else:
                due = cache.next_expiry()
                expired = cache.tick(now)
                assert expired == ttl_tick_reference(mirror.entries, drop, ttl, now)
                assert now >= due or expired == []
            assert [(k, e.cached_at, e.requery_pending) for k, e in cache.entries.items()] == [
                (k, e.cached_at, e.requery_pending) for k, e in mirror.entries.items()
            ]


class TestReinsertion:
    def test_refresh_replaces_in_place(self):
        cache = ClientCache(2, PolicyKind.LRU)
        cache.insert(entry("a", cached_at=0.0), now=0.0)
        cache.insert(entry("b", cached_at=1.0), now=1.0)
        report = cache.insert(entry("a", cached_at=5.0), now=5.0)
        assert report.admitted and report.evicted is None
        assert cache.entries["a"].cached_at == 5.0
        assert len(cache.entries) == 2
