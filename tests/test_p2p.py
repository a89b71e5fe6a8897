import pytest

from aircell.cache import CacheEntry, ClientCache, PolicyKind
from aircell.freshness import FreshnessStats, SourceObject, p_not_modified_or_zero
from aircell.p2p import Answer, InformationManager, P2PCell, QueryOutcome, Resolution
from oracles import normal_cdf

MTBU, STDV = 100.0, 20.0


def elapsed_for_pnm(target_pnm: float) -> float:
    """Elapsed time giving the wanted not-modified probability (CDF oracle)."""
    lo, hi = -8.0, 8.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if 1.0 - normal_cdf(mid) > target_pnm:
            lo = mid
        else:
            hi = mid
    return MTBU + STDV * (lo + hi) / 2


def aged_entry(oid: str, p_nm: float, now: float) -> CacheEntry:
    t_last = now - elapsed_for_pnm(p_nm)
    stats = FreshnessStats(MTBU, STDV, t_last, 10)
    return CacheEntry(oid, stats, cached_at=t_last)


def make_cell(adjacency, object_ids=("svc",), **kwargs):
    sources = {}
    for oid in object_ids:
        src = SourceObject(oid)
        for t in (-300.0, -200.0, -95.0):
            src.write(t)
        sources[oid] = src
    return P2PCell({k: set(v) for k, v in adjacency.items()}, sources, **kwargs)


def make_im(cell, client_id, capacity=8, policy=PolicyKind.LRU):
    cache = ClientCache(capacity, policy)
    return InformationManager(client_id, cell, cache)


def plain(result, cls):
    """``result``, checked to be a ``cls`` itself whose fields round-trip;
    equal tuples of another type would also compare equal."""
    assert type(result) is cls
    assert cls(**result._asdict()) == result
    assert list(result._asdict()) == list(cls._fields)
    return result


class TestChainOrder:
    def test_zero_qos_hits_local_cache(self):
        cell = make_cell({"a": set()})
        im = make_im(cell, "a")
        im.query_cache.insert(aged_entry("svc", 0.4, now=50.0), now=50.0)
        outcome = plain(im.resolve_query("svc", qos=0.0, now=50.0), QueryOutcome)
        assert outcome.resolution is Resolution.LOCAL_CACHE
        assert outcome.latency == cell.costs.local

    def test_full_qos_goes_to_source(self):
        cell = make_cell({"a": {"b"}, "b": {"a"}})
        a, b = make_im(cell, "a"), make_im(cell, "b")
        a.query_cache.insert(aged_entry("svc", 0.95, now=10.0), now=10.0)
        b.query_cache.insert(aged_entry("svc", 0.99, now=10.0), now=10.0)
        outcome = plain(a.resolve_query("svc", qos=1.0, now=10.0), QueryOutcome)
        assert outcome.resolution is Resolution.SOURCE
        assert outcome.latency == cell.costs.source
        assert outcome.p_nm == 1.0

    def test_stale_local_fresh_neighbor(self):
        cell = make_cell({"a": {"b"}, "b": {"a"}})
        a, b = make_im(cell, "a"), make_im(cell, "b")
        now = 120.0
        a.query_cache.insert(aged_entry("svc", 0.3, now), now=now)
        b.query_cache.insert(aged_entry("svc", 0.7, now), now=now)
        local_pnm = p_not_modified_or_zero(a.query_cache.peek("svc").source_stats_snapshot, now)
        assert local_pnm == pytest.approx(0.3, abs=1e-6)
        outcome = plain(a.resolve_query("svc", qos=0.5, now=now), QueryOutcome)
        assert outcome.resolution is Resolution.NEIGHBOR_CACHE
        assert outcome.served_by == "b"
        assert outcome.p_nm == pytest.approx(0.7, abs=1e-6)
        assert outcome.latency == 2 * cell.costs.hop

    def test_local_provider_preempts_neighbors(self):
        cell = make_cell({"a": {"b"}, "b": {"a"}})
        a, b = make_im(cell, "a"), make_im(cell, "b")
        a.register_provider("svc")
        b.query_cache.insert(aged_entry("svc", 0.99, now=5.0), now=5.0)
        outcome = plain(a.resolve_query("svc", qos=0.8, now=5.0), QueryOutcome)
        assert outcome.resolution is Resolution.LOCAL_PROVIDER

    def test_freshest_neighbor_wins_ties_by_id(self):
        cell = make_cell({"a": {"b", "c"}, "b": {"a"}, "c": {"a"}})
        a = make_im(cell, "a")
        b, c = make_im(cell, "b"), make_im(cell, "c")
        now = 80.0
        b.query_cache.insert(aged_entry("svc", 0.6, now), now=now)
        c.query_cache.insert(aged_entry("svc", 0.8, now), now=now)
        assert a.resolve_query("svc", qos=0.5, now=now).served_by == "c"

        cell2 = make_cell({"a": {"b", "c"}, "b": {"a"}, "c": {"a"}})
        a2 = make_im(cell2, "a")
        b2, c2 = make_im(cell2, "b"), make_im(cell2, "c")
        same = aged_entry("svc", 0.8, now)
        b2.query_cache.insert(same, now=now)
        c2.query_cache.insert(same, now=now)
        assert a2.resolve_query("svc", qos=0.5, now=now).served_by == "b"

    def test_neighbor_provider_beats_stale_neighbor_cache(self):
        cell = make_cell({"a": {"b", "c"}, "b": {"a"}, "c": {"a"}})
        a = make_im(cell, "a")
        b, c = make_im(cell, "b"), make_im(cell, "c")
        b.query_cache.insert(aged_entry("svc", 0.6, now=30.0), now=30.0)
        c.register_provider("svc")
        outcome = plain(a.resolve_query("svc", qos=0.2, now=30.0), QueryOutcome)
        assert outcome.resolution is Resolution.NEIGHBOR_PROVIDER
        assert outcome.served_by == "c"

    def test_unreachable_source_is_recorded_not_fatal(self):
        cell = make_cell({"a": set()})
        cell.sources["svc"].reachable = False
        im = make_im(cell, "a")
        outcome = plain(im.resolve_query("svc", qos=0.9, now=10.0), QueryOutcome)
        assert outcome.resolution is Resolution.UNRESOLVED
        assert outcome.served_by is None

    def test_flood_is_one_hop_only(self):
        cell = make_cell({"a": {"b"}, "b": {"a", "c"}, "c": {"b"}})
        a, b, c = make_im(cell, "a"), make_im(cell, "b"), make_im(cell, "c")
        c.query_cache.insert(aged_entry("svc", 0.99, now=20.0), now=20.0)
        outcome = a.resolve_query("svc", qos=0.0, now=20.0)
        assert outcome.resolution is Resolution.SOURCE  # c is two hops away

    @staticmethod
    def record_asks(monkeypatch) -> list[str]:
        """The ids of the clients asked by a neighbour, in order."""
        asked = []
        handle = InformationManager.handle_neighbor_query

        def counted(self, *args, **kwargs):
            asked.append(self.client_id)
            return handle(self, *args, **kwargs)

        monkeypatch.setattr(InformationManager, "handle_neighbor_query", counted)
        return asked

    def test_each_neighbor_asked_once_never_the_querier(self, monkeypatch):
        asked = self.record_asks(monkeypatch)
        cell = make_cell({"a": {"b", "c"}, "b": {"a", "c"}, "c": {"a", "b"}})
        a, b, c = make_im(cell, "a"), make_im(cell, "b"), make_im(cell, "c")
        # both hold a copy, and both copies fail the QoS test
        b.query_cache.insert(aged_entry("svc", 0.3, now=10.0), now=10.0)
        c.query_cache.insert(aged_entry("svc", 0.2, now=10.0), now=10.0)
        outcome = a.resolve_query("svc", qos=0.5, now=10.0)
        assert outcome.resolution is Resolution.SOURCE
        assert asked == ["b", "c"]

    def test_non_holders_are_not_asked(self, monkeypatch):
        asked = self.record_asks(monkeypatch)
        cell = make_cell({"a": {"b", "c", "d", "e"}, "b": {"a"}, "c": {"a"},
                          "d": {"a"}, "e": {"a"}})
        a, b, c, d = (make_im(cell, cid) for cid in "abcd")
        InformationManager("e", cell)  # no cache at all
        b.query_cache.insert(aged_entry("svc", 0.3, now=10.0), now=10.0)  # fails QoS
        c.register_provider("svc")
        d.query_cache.insert(aged_entry("other", 0.9, now=10.0), now=10.0)
        outcome = a.resolve_query("svc", qos=0.5, now=10.0)
        assert outcome.resolution is Resolution.NEIGHBOR_PROVIDER
        assert outcome.served_by == "c"
        assert asked == ["b", "c"]


class TestNeighborService:
    def test_cache_then_provider_then_silence(self):
        cell = make_cell({"a": {"b"}, "b": {"a"}})
        b = make_im(cell, "b")
        assert b.handle_neighbor_query("svc", 0.2, now=10.0) is None
        b.register_provider("svc")
        read = plain(b.handle_neighbor_query("svc", 0.2, now=10.0), Answer)
        assert read.from_cache is False and read.p_nm == 1.0
        assert read.stats is cell.sources["svc"].log.stats()
        entry = aged_entry("svc", 0.6, now=10.0)
        b.query_cache.insert(entry, now=10.0)
        copy = plain(b.handle_neighbor_query("svc", 0.2, now=10.0), Answer)
        assert copy.from_cache is True and copy.stats is entry.source_stats_snapshot
        assert copy.p_nm == p_not_modified_or_zero(entry.source_stats_snapshot, 10.0)

    def test_stale_cache_falls_through_to_provider(self):
        cell = make_cell({"a": {"b"}, "b": {"a"}})
        b = make_im(cell, "b")
        b.register_provider("svc")
        b.query_cache.insert(aged_entry("svc", 0.1, now=10.0), now=10.0)
        answer = b.handle_neighbor_query("svc", 0.7, now=10.0)
        assert answer.from_cache is False and answer.p_nm == 1.0

    def test_remote_serves_do_not_touch_recency(self):
        cell = make_cell({"a": {"b"}, "b": {"a"}}, object_ids=("svc", "other"))
        b = make_im(cell, "b", capacity=2)
        b.query_cache.insert(aged_entry("svc", 0.9, now=10.0), now=10.0)
        b.query_cache.insert(aged_entry("other", 0.9, now=11.0), now=11.0)
        b.handle_neighbor_query("svc", 0.0, now=12.0)
        assert next(iter(b.query_cache.entries)) == "svc"  # still oldest


class TestOutcomeBookkeeping:
    def test_payload_age_consistent_with_snapshot(self):
        cell = make_cell({"a": {"b"}, "b": {"a"}})
        a, b = make_im(cell, "a"), make_im(cell, "b")
        now = 64.0
        entry = aged_entry("svc", 0.75, now)
        b.query_cache.insert(entry, now=now)
        outcome = a.resolve_query("svc", qos=0.5, now=now)
        assert outcome.write_time == entry.source_stats_snapshot.t_last_update

    def test_served_pnm_meets_qos(self, rng):
        for _ in range(50):
            cell = make_cell({"a": {"b"}, "b": {"a"}})
            a, b = make_im(cell, "a"), make_im(cell, "b")
            now = 100.0
            a.query_cache.insert(aged_entry("svc", float(rng.uniform(0, 1)), now), now)
            b.query_cache.insert(aged_entry("svc", float(rng.uniform(0, 1)), now), now)
            qos = float(rng.uniform(0, 1))
            outcome = a.resolve_query("svc", qos, now)
            assert outcome.p_nm >= qos

    def test_resolution_caches_the_answer(self):
        cell = make_cell({"a": set()})
        a = make_im(cell, "a")
        first = a.resolve_query("svc", qos=0.0, now=5.0)
        assert first.resolution is Resolution.SOURCE
        second = a.resolve_query("svc", qos=0.0, now=6.0)
        assert second.resolution is Resolution.LOCAL_CACHE

    def test_caching_disabled_always_reaches_source(self):
        cell = make_cell({"a": set()})
        a = InformationManager("a", cell, query_cache=None)
        for now in (5.0, 6.0, 7.0):
            assert a.resolve_query("svc", 0.0, now).resolution is Resolution.SOURCE

    def test_overhearing_seeds_neighbor_caches(self):
        quiet = make_cell({"a": {"b"}, "b": {"a"}})
        a, b = make_im(quiet, "a"), make_im(quiet, "b")
        a.resolve_query("svc", qos=0.0, now=5.0)
        assert b.query_cache.peek("svc") is None

        loud = make_cell({"a": {"b"}, "b": {"a"}}, overhearing=True)
        a2, b2 = make_im(loud, "a"), make_im(loud, "b")
        a2.resolve_query("svc", qos=0.0, now=5.0)
        assert b2.query_cache.peek("svc") is not None

    def test_overheard_copies_are_independent(self):
        cell = make_cell({"a": {"b"}, "b": {"a"}}, overhearing=True)
        requery = dict(policy=PolicyKind.TTL_REQUERY, default_ttl=5.0)
        a, b = (InformationManager(cid, cell, ClientCache(4, **requery)) for cid in "ab")
        a.resolve_query("svc", qos=0.0, now=10.0)
        assert b.query_cache.peek("svc") is not a.query_cache.peek("svc")
        assert b.query_cache.tick(now=20.0) == ["svc"]
        assert b.query_cache.peek("svc").requery_pending is True
        assert a.query_cache.peek("svc").requery_pending is False

    def test_warm_cache_reduces_source_resolutions(self):
        cell = make_cell({"a": set()})
        a = make_im(cell, "a")
        hits = [a.resolve_query("svc", 0.0, float(t)).resolution for t in range(5)]
        assert hits.count(Resolution.SOURCE) == 1
        bare = InformationManager("bare", make_cell({"bare": set()}), None)
        misses = [bare.resolve_query("svc", 0.0, float(t)).resolution for t in range(5)]
        assert misses.count(Resolution.SOURCE) == 5


class TestScheduledSource:
    @pytest.mark.parametrize("now, write", [(39.0, -95.0), (40.0, 40.0), (90.0, 90.0)])
    @pytest.mark.parametrize("client, tier", [
        ("a", Resolution.SOURCE), ("b", Resolution.NEIGHBOR_PROVIDER),
    ])
    def test_the_write_due_at_now_is_served_unadvanced(self, client, tier, now, write):
        # a library caller: nothing advances the source but the cell's own reads
        schedule = (-300.0, -200.0, -95.0, 40.0, 90.0)
        sources = {"svc": SourceObject("svc", schedule=schedule)}
        cell = P2PCell({"a": set(), "b": {"c"}, "c": {"b"}}, sources)
        for cid in "abc":
            InformationManager(cid, cell)
        cell.ims["c"].register_provider("svc")
        outcome = cell.ims[client].resolve_query("svc", qos=0.0, now=now)
        assert outcome.resolution is tier
        assert outcome.write_time == write
        assert sources["svc"].log.update_times[-1] == write  # and no later one
