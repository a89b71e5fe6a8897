import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aircell import broadcast_plan, sim
from aircell.broadcast_plan import (
    BatchingServer,
    Catalog,
    Partition,
    PlanParams,
    Unstable,
    expected_access_time,
    move_order,
    optimize_bandwidth_split,
    partition_objects,
)
from oracles import (
    DemandRecord,
    grid_search_split,
    partition_reference,
    prefix_reference,
    replay_partition,
)


def demands_of(rates: dict[str, float]) -> dict[str, float]:
    """``rates`` in ascending id order, the order the planner sums them in."""
    return dict(sorted(rates.items()))


def records_of(rates: dict[str, float]) -> list[DemandRecord]:
    """The reference planner's input for a rate map, in the map's order."""
    return [DemandRecord(oid, r, 1.0) for oid, r in rates.items()]


def planned(rates: dict[str, float]) -> tuple[Catalog, np.ndarray]:
    """The planner's input for a rate map: its ids and its rate column, in
    the map's order."""
    return Catalog.of(rates), np.array(list(rates.values()), dtype=float)


def move_order_ids(rates: dict[str, float]) -> list[str]:
    """The map's ids in ``move_order``."""
    catalog, column = planned(rates)
    return catalog.ids[move_order(catalog, column)].tolist()


class TestPlanParams:
    @pytest.mark.parametrize(
        "bandwidth, request_size, threshold, message",
        [
            (math.nan, 0.25, math.inf, "total bandwidth must be finite and > 0"),
            (math.inf, 0.25, math.inf, "total bandwidth must be finite and > 0"),
            (0.0, 0.25, math.inf, "total bandwidth must be finite and > 0"),
            (10.0, math.nan, math.inf, "request size must be finite and >= 0"),
            (10.0, math.inf, math.inf, "request size must be finite and >= 0"),
            (10.0, -0.25, math.inf, "request size must be finite and >= 0"),
            (10.0, 0.25, math.nan, "threshold must not be NaN"),
        ],
    )
    def test_non_finite_or_out_of_range_refused(
        self, bandwidth, request_size, threshold, message
    ):
        # PlanParams(nan, 0.25) used to plan to b_d = nan
        with pytest.raises(ValueError, match=message):
            PlanParams(bandwidth, request_size, threshold)

    def test_infinite_threshold_is_no_limit(self):
        assert PlanParams(10.0, 0.25).threshold == math.inf


class TestExpectedAccessTime:
    def test_broadcast_half_cycle(self):
        demands = demands_of({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0})
        part = Partition(("a", "b", "c", "d"), (), b_b=2.0, b_d=0.0)
        access = expected_access_time(part, *planned(demands), PlanParams(2.0, 0.25))
        assert access.t_broadcast == 1.0  # 4 * 1 / (2 * 2)
        assert access.raw == pytest.approx(4.0 * 1.0)
        assert access.normalized == pytest.approx(1.0)

    def test_on_demand_queue(self):
        demands = demands_of({"a": 2.0, "b": 2.0})
        part = Partition((), ("a", "b"), b_b=0.0, b_d=10.0)
        access = expected_access_time(part, *planned(demands), PlanParams(10.0, 0.25))
        assert access.mu_d == pytest.approx(8.0)
        assert access.lambda_d == pytest.approx(4.0)
        assert access.t_on_demand == pytest.approx(0.25)

    def test_all_published_uniform(self):
        rates = {f"o{i}": 0.5 for i in range(6)}
        demands = demands_of(rates)
        part = Partition(tuple(sorted(rates)), (), b_b=3.0, b_d=0.0)
        access = expected_access_time(part, *planned(demands), PlanParams(3.0, 0.25))
        assert access.raw == pytest.approx(sum(rates.values()) * 6 * 1.0 / (2 * 3.0))

    def test_unstable_raises(self):
        demands = demands_of({"a": 9.0})
        part = Partition((), ("a",), b_b=5.0, b_d=5.0)
        with pytest.raises(Unstable):
            expected_access_time(part, *planned(demands), PlanParams(10.0, 0.25))

    def test_finite_iff_stable(self):
        demands = demands_of({"a": 1.0, "b": 1.0})
        stable = Partition(("a",), ("b",), b_b=5.0, b_d=5.0)
        access = expected_access_time(stable, *planned(demands), PlanParams(10.0, 0.25))
        assert math.isfinite(access.raw)
        barely = Partition(("a",), ("b",), b_b=8.75, b_d=1.25)
        with pytest.raises(Unstable):  # mu_d = 1.0 == lambda_d
            expected_access_time(barely, *planned(demands), PlanParams(10.0, 0.25))


class TestBandwidthSplit:
    def test_no_on_demand_objects(self):
        assert optimize_bandwidth_split(1, 1.0, 0.0, PlanParams(8.0, 0.25)) == (8.0, 0.0)

    def test_no_published_objects(self):
        assert optimize_bandwidth_split(0, 0.0, 1.0, PlanParams(8.0, 0.25)) == (0.0, 8.0)

    def test_golden_instance_matches_grid_oracle(self):
        # two most demanded of (4, 3, 2, 1) published; B=10, S=1, R=0.25
        rates = {"w": 4.0, "x": 3.0, "y": 2.0, "z": 1.0}
        params = PlanParams(10.0, 0.25)
        b_b, b_d = optimize_bandwidth_split(
            2, rates["w"] + rates["x"], rates["y"] + rates["z"], params
        )
        grid_b, _ = grid_search_split(2, 7.0, 3.0, 10.0, 1.0, 0.25)
        assert grid_b == pytest.approx(3.609)  # frozen from the 1e-4-step oracle
        assert abs(b_b - grid_b) <= 1e-3 * params.total_bandwidth
        assert b_b + b_d == pytest.approx(10.0)

    def test_random_instances_match_grid_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 8))
            rates = {f"o{i}": float(rng.uniform(0.2, 3.0)) for i in range(n)}
            request = float(rng.uniform(0.0, 0.5))
            total_rate = sum(rates.values())
            bandwidth = float((1.0 + request) * total_rate * rng.uniform(1.5, 4.0))
            k = int(rng.integers(1, n))
            order = sorted(rates, key=lambda o: (-rates[o], o))
            pub, od = order[:k], order[k:]
            params = PlanParams(bandwidth, request)
            pub_rate = sum(rates[o] for o in pub)
            od_rate = sum(rates[o] for o in od)
            b_b, _ = optimize_bandwidth_split(k, pub_rate, od_rate, params)
            grid_b, _ = grid_search_split(k, pub_rate, od_rate, bandwidth, 1.0, request)
            assert abs(b_b - grid_b) <= 1e-3 * bandwidth

    def test_search_lands_within_tol_of_the_closed_form(self, rng):
        # partition_objects screens prefixes on this: the search minimizes
        # A/x + C/(U - x), whose minimum on [tol, U - tol] is
        # x* = U sqrt(A) / (sqrt(A) + sqrt(C)) clamped to that interval
        for _ in range(300):
            k = int(rng.integers(1, 500))
            pub_rate, od_rate = (float(r) for r in rng.uniform(1e-3, 5.0, size=2))
            request = float(rng.uniform(0.0, 0.5))
            bandwidth = od_rate * (1.0 + request) * float(rng.uniform(1.001, 10.0))
            b_b, _ = optimize_bandwidth_split(
                k, pub_rate, od_rate, PlanParams(bandwidth, request)
            )
            upper = bandwidth - od_rate * (1.0 + request)
            root_a = math.sqrt(pub_rate * k / 2.0)
            root_c = math.sqrt(od_rate * (1.0 + request))
            tol = 1e-6 * bandwidth
            x_star = min(max(upper * root_a / (root_a + root_c), tol), upper - tol)
            assert abs(b_b - x_star) <= tol

    def test_unstable_split(self):
        with pytest.raises(Unstable):
            optimize_bandwidth_split(1, 1.0, 50.0, PlanParams(10.0, 0.25))

    @pytest.mark.parametrize(
        "k, pub_rate, od_rate", [(-1, 1.0, 1.0), (1, -1.0, 1.0), (1, 1.0, math.nan)]
    )
    def test_negative_count_or_rate_rejected(self, k, pub_rate, od_rate):
        with pytest.raises(ValueError, match="published count and group rates must be >= 0"):
            optimize_bandwidth_split(k, pub_rate, od_rate, PlanParams(10.0, 0.25))


class TestPartition:
    def test_infinite_threshold_publishes_everything(self):
        demands = demands_of({"a": 3.0, "b": 2.0, "c": 1.0})
        result = partition_objects(*planned(demands), PlanParams(10.0, 0.25, math.inf))
        assert result.partition.published == ("a", "b", "c")
        assert result.feasible

    def test_impossible_threshold_flags_infeasible(self):
        demands = demands_of({"a": 3.0, "b": 2.0})
        result = partition_objects(*planned(demands), PlanParams(10.0, 0.25, threshold=1e-9))
        assert result.partition.published == ()
        assert not result.feasible

    def test_golden_zipf_instance(self):
        n = 20
        weights = 1.0 / np.arange(1, n + 1, dtype=float)
        pmf = weights / weights.sum()
        rates = {f"obj{i:02d}": 6.0 * float(pmf[i]) for i in range(n)}
        params = PlanParams(10.0, 0.25, threshold=3.0)
        result = partition_objects(*planned(demands_of(rates)), params)
        oracle_pub, oracle_feasible, _ = replay_partition(rates, 10.0, 1.0, 0.25, 3.0)
        assert result.feasible == oracle_feasible
        assert list(result.partition.published) == oracle_pub
        assert len(result.partition.published) == 4  # frozen via the replay oracle
        order = move_order_ids(demands_of(rates))
        assert list(result.partition.published) == order[: len(result.partition.published)]

    def test_random_instances_match_replay_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            rates = {f"o{i}": float(rng.uniform(0.1, 2.0)) for i in range(n)}
            bandwidth = float(sum(rates.values()) * 1.25 * rng.uniform(1.0, 3.0))
            threshold = float(rng.uniform(0.5, 8.0))
            params = PlanParams(bandwidth, 0.25, threshold)
            result = partition_objects(*planned(demands_of(rates)), params)
            oracle_pub, oracle_feasible, _ = replay_partition(
                rates, bandwidth, 1.0, 0.25, threshold
            )
            assert result.feasible == oracle_feasible
            if oracle_feasible:
                assert list(result.partition.published) == oracle_pub
            order = move_order_ids(demands_of(rates))
            k = len(result.partition.published)
            assert list(result.partition.published) == order[:k]

    def test_returned_config_satisfies_threshold_and_next_move_does_not(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            rates = {f"o{i}": float(rng.uniform(0.2, 2.0)) for i in range(n)}
            bandwidth = float(sum(rates.values()) * 1.25 * rng.uniform(1.2, 2.5))
            threshold = float(rng.uniform(1.0, 6.0))
            params = PlanParams(bandwidth, 0.25, threshold)
            result = partition_objects(*planned(demands_of(rates)), params)
            if not result.feasible:
                continue
            assert result.access.raw <= threshold
            k = len(result.partition.published)
            if k < n:
                order = move_order_ids(demands_of(rates))
                nxt_pub, nxt_od = order[: k + 1], order[k + 1 :]
                try:
                    b_b, b_d = optimize_bandwidth_split(
                        k + 1, sum(rates[o] for o in nxt_pub),
                        sum(rates[o] for o in nxt_od), params,
                    )
                    nxt = expected_access_time(
                        Partition(tuple(nxt_pub), tuple(nxt_od), b_b, b_d),
                        *planned(demands_of(rates)), params,
                    )
                    assert nxt.raw > threshold
                except Unstable:
                    pass

    def test_move_order_invariant_under_scaling(self, rng):
        rates = {f"o{i}": float(rng.uniform(0.1, 5.0)) for i in range(12)}
        base = move_order_ids(demands_of(rates))
        for factor in (0.01, 3.0, 250.0):
            scaled = move_order_ids(demands_of({k: v * factor for k, v in rates.items()}))
            assert scaled == base


# tied and zero rates come from a short menu; the rest are arbitrary
_rates = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.floats(1e-3, 10.0, allow_nan=False, allow_infinity=False),
)
# the share of the objects that nobody asks for, as after a replan
_unasked = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
# a power of ten for the rates and the bandwidth alike, which leaves every
# access time where it is at scale 1: rates run from 1e-303 to 1e301
_exponents = st.one_of(st.just(0), st.integers(-300, 300))


def unasked(rates: list[float], share: float) -> list[float]:
    """``rates`` with the last ``share`` of them set to 0.0 and -0.0 in turn."""
    zeros = int(len(rates) * share)
    return rates[: len(rates) - zeros] + [(0.0, -0.0)[i % 2] for i in range(zeros)]


class TestPartitionBitExact:
    """The one-pass planner against the prefix-by-prefix original."""

    @settings(max_examples=300, deadline=None)
    @given(
        rates=st.integers(1, 60).flatmap(
            lambda n: st.lists(_rates, min_size=n, max_size=n)
        ),
        request=st.sampled_from([0.0, 0.25, 0.4]),
        # below 1 the all-on-demand configuration is unstable
        headroom=st.floats(0.3, 4.0, allow_nan=False),
        threshold=st.one_of(st.just(math.inf), st.floats(1e-12, 1e-6)),
        # raw access time runs at about 0.002-0.07 per unit of total rate
        # here, so a cap in that band stops the loop part-way
        mid_cap=st.one_of(st.none(), st.floats(2e-3, 0.08)),
        # the map's order is the caller's, and the planner sums it in that order
        ids_descending=st.booleans(),
        share=_unasked,
        exponent=_exponents,
    )
    def test_matches_reference_exactly(
        self, rates, request, headroom, threshold, mid_cap, ids_descending, share, exponent
    ):
        rates, scale = unasked(rates, share), 10.0**exponent
        listed = list(enumerate(rates))
        by_id = {f"o{i:02d}": r * scale
                 for i, r in (listed[::-1] if ids_descending else listed)}
        load = sum(rates) * (1.0 + request)
        bandwidth = max(load * headroom, 0.1) * scale
        if mid_cap is not None:
            threshold = mid_cap * sum(rates)
        params = PlanParams(bandwidth, request, threshold)
        expected = partition_reference(records_of(by_id), params)
        assert partition_objects(*planned(by_id), params) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        rates=st.integers(1, 60).flatmap(
            lambda n: st.lists(_rates, min_size=n, max_size=n)
        ),
        request=st.sampled_from([0.0, 0.25, 0.4]),
        headroom=st.floats(1.05, 4.0, allow_nan=False),
        share=_unasked,
        exponent=_exponents,
        data=st.data(),
    )
    def test_threshold_at_a_prefix_access_time(
        self, rates, request, headroom, share, exponent, data
    ):
        # at, or a rounding away from, a prefix's own access time the
        # closed-form screen cannot tell, and the search has to; in the zero
        # tail the screen's exact rule has to
        rates, scale = unasked(rates, share), 10.0**exponent
        by_id = {f"o{i:02d}": r * scale for i, r in enumerate(rates)}
        bandwidth = max(sum(rates) * (1.0 + request) * headroom, 0.1) * scale
        k = data.draw(st.integers(0, len(rates)), label="k")
        raw = prefix_reference(records_of(by_id), PlanParams(bandwidth, request), k)[1].raw
        assume(math.isfinite(raw))
        for threshold in (
            raw, math.nextafter(raw, -math.inf), math.nextafter(raw, math.inf),
            raw * (1 - 1e-12), raw * (1 + 1e-12),
        ):
            params = PlanParams(bandwidth, request, threshold)
            expected = partition_reference(records_of(by_id), params)
            assert partition_objects(*planned(by_id), params) == expected

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rates, params", [
        # subnormal rates, sums and bandwidths
        ({"a": 5e-324, "b": 1e-320, "c": 0.0}, PlanParams(1e-318, 0.25)),
        ({"a": 3e-310, "b": 2e-310, "c": 2e-310, "d": 0.0}, PlanParams(4e-309, 0.25, 5.0)),
        ({"a": 1e-300, "b": 5e-324}, PlanParams(1e-299, 0.0)),
        # k / (2 B) is inf at every prefix past 0, and the zero tail is
        # planned at (B, 0) with no demand to weigh it
        ({"a": 0.0, "b": -0.0}, PlanParams(5e-324, 0.25)),
        # on-demand demand past a subnormal bandwidth
        ({"a": 1.0, "b": 0.0}, PlanParams(5e-324, 0.25)),
    ])
    def test_tiny_scales_match_reference_without_warning(self, rates, params):
        assert partition_objects(*planned(rates), params) == partition_reference(
            records_of(rates), params)

    @pytest.mark.filterwarnings("error")
    def test_total_past_float_max_refused(self):
        # each rate is finite, their sum is not: numpy warned of the overflow
        rates = {"a": 1.7e308, "b": 5.7e307}
        with pytest.raises(ValueError, match="total arrival rate must be finite"):
            partition_objects(*planned(rates), PlanParams(1e307, 0.25, 1e300))
        with pytest.raises(ValueError, match="total arrival rate must be finite"):
            expected_access_time(Partition(("a",), ("b",), 0.5, 0.5), *planned(rates),
                                 PlanParams(1.0, 0.25))

    def test_few_folds_and_searches_on_a_cell_mostly_unasked(self, monkeypatch):
        # 10**5 objects of which 90 % have rate 0, as after a replan, and no
        # cap: the zero tail is decided exactly and the rest by the screen,
        # so only prefix 0 and the prefix returned are folded and searched
        n, asked = 100_000, 10_000
        weights = 1.0 / np.arange(1, asked + 1, dtype=float)
        rates = dict.fromkeys((f"obj{i:06d}" for i in range(n)), 0.0)
        for i, w in enumerate(weights / weights.sum()):
            rates[f"obj{10 * i:06d}"] = 2.0 * float(w)
        params = PlanParams(10.0, 0.25)
        searches, folds = [], []

        def counting(calls, call):
            def counted(*args):
                calls.append(args)
                return call(*args)
            return counted

        monkeypatch.setattr(broadcast_plan, "optimize_bandwidth_split",
                            counting(searches, optimize_bandwidth_split))
        monkeypatch.setattr(broadcast_plan, "_suffix_rate",
                            counting(folds, broadcast_plan._suffix_rate))
        result = partition_objects(*planned(rates), params)
        assert len(result.partition.published) == n and result.feasible
        assert (result.partition.b_b, result.partition.b_d) == (10.0, 0.0)
        assert result.access == expected_access_time(result.partition, *planned(rates), params)
        assert len(searches) <= 3 and len(folds) <= 3

    def test_few_searches_on_a_large_cell(self, monkeypatch):
        # 500 Zipf-distributed objects whose cap of 5 stops the loop part-way:
        # the screen decides nearly every prefix, and the search plans the
        # prefix returned
        n = 500
        weights = 1.0 / np.arange(1, n + 1, dtype=float)
        rates = {f"obj{i:03d}": 2.0 * float(w) for i, w in enumerate(weights / weights.sum())}
        params = PlanParams(10.0, 0.25, threshold=5.0)
        calls = []

        def counted(*args):
            calls.append(args)
            return optimize_bandwidth_split(*args)

        monkeypatch.setattr(broadcast_plan, "optimize_bandwidth_split", counted)
        result = partition_objects(*planned(rates), params)
        assert 0 < len(result.partition.published) < n
        assert len(calls) <= 3
        assert result == partition_reference(records_of(rates), params)

    def test_saturated_cell_is_infeasible(self):
        # on-demand load 10 * 1.25 exceeds the bandwidth, so prefix 0 is
        # unstable; publishing only lowers that load, so later prefixes
        # are unstable only through rounding
        demands = demands_of({"a": 4.0, "b": 3.0, "c": 3.0})
        params = PlanParams(10.0 * 1.25 * 0.9, 0.25, 50.0)
        result = partition_objects(*planned(demands), params)
        assert result == partition_reference(records_of(demands), params)
        assert not result.feasible and math.isinf(result.access.raw)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="arrival rate must be finite and >= 0"):
            partition_objects(*planned({"a": 1.0, "b": rate}), PlanParams(10.0, 0.25))

    @pytest.mark.parametrize("rate", [1.0, 0.0])
    @pytest.mark.parametrize("ids", [("a", "a\x00", "b"), ("b", "a\x00", "a")])
    def test_ids_differing_by_a_trailing_nul_keep_their_order(self, ids, rate):
        # a numpy 'U' array drops trailing NULs, so "a" and "a\x00" would
        # tie and keep the caller's order; in id order "a" comes first,
        # among the objects asked for and in the zero tail alike
        demand = {"a": rate, "a\x00": rate, "b": 0.5}
        rates = {oid: demand[oid] for oid in ids}
        params = PlanParams(10.0, 0.25)
        result = partition_objects(*planned(rates), params)
        assert result == partition_reference(records_of(rates), params)
        published = result.partition.published
        assert published.index("a") + 1 == published.index("a\x00")

    @pytest.mark.parametrize("clients", [
        {"count": 3, "request_rate": 0.05},
        [{"client_id": "x", "request_rate": 0.7}, {"client_id": "y", "request_rate": 0.1}],
        {"count": 2, "request_rate": 0.0},
        [],  # no clients: the total is the int 0
    ])
    def test_initial_rates_are_the_scalar_products(self, clients):
        doc = {"seed": 1, "duration_slots": 10, "objects": {"count": 25, "mtbu": 50.0},
               "clients": clients, "workload": {"zipf_theta": 0.7}, "cell": {"channels": 1}}
        scenario = sim.scenario_from_dict(doc)
        total_rate = 0
        for c in scenario.clients:
            total_rate += c.request_rate
        pmf = sim.zipf_pmf(25, 0.7)
        expected = [total_rate * float(pmf[i]) for i in range(25)]
        column = sim.initial_rates(scenario)
        assert column.dtype == np.float64
        assert [x.hex() for x in column.tolist()] == [x.hex() for x in expected]

    def test_a_catalog_refuses_a_repeated_id_and_a_misfit_column(self):
        with pytest.raises(ValueError, match="object ids must be distinct"):
            Catalog.of(["a", "b", "a"])
        catalog = Catalog.of(["b", "a"])
        assert catalog.ascending.tolist() == [1, 0]
        with pytest.raises(ValueError, match="one rate per catalogued object"):
            partition_objects(catalog, np.array([1.0]), PlanParams(10.0, 0.25))
        with pytest.raises(ValueError, match="no rates given"):
            partition_objects(Catalog.of([]), np.array([]), PlanParams(10.0, 0.25))

    def test_engine_plans_match_reference(self, monkeypatch):
        # a replanning cell whose observed rates, counts over slots so far,
        # hold many zeros and many ties
        engine_plans_match_reference(monkeypatch, {"count": 40, "mtbu": 100.0})

    def test_engine_plans_match_reference_out_of_id_order(self, monkeypatch):
        # the same cell listed out of id order: the Zipf ranks, the ties'
        # order and the order of the sums all differ from the id order
        shuffled = np.random.default_rng(3).permutation(40).tolist()
        engine_plans_match_reference(
            monkeypatch, [{"object_id": f"obj{i:02d}", "mtbu": 100.0} for i in shuffled])


def engine_plans_match_reference(monkeypatch, objects) -> None:
    """Every plan of a replanning broadcast run of ``objects`` is the
    reference planner's at the rates the engine passed."""
    doc = {
        "seed": 11, "duration_slots": 1200, "resolution_mode": "broadcast",
        "objects": objects,
        "clients": {"count": 3, "request_rate": 0.05},
        "workload": {"zipf_theta": 0.9},
        "cell": {"channels": 2, "total_bandwidth": 1.0, "threshold": 0.3,
                 "batching_window": 2.0, "replan_interval": 40},
    }
    scenario = sim.scenario_from_dict(doc)
    plans = []
    plan_cell = sim.plan_cell

    def recording(scn, catalog, rates):
        made = plan_cell(scn, catalog, rates)
        plans.append((dict(zip(catalog.ids.tolist(), rates.tolist())), made[0]))
        return made

    monkeypatch.setattr(sim, "plan_cell", recording)
    sim.run(scenario)
    assert len(plans) == 30  # at slot 0, then every 40 slots
    cell = scenario.cell
    params = PlanParams(cell.total_bandwidth, cell.request_size, cell.threshold)
    for rates, result in plans:
        assert list(rates) == [o.object_id for o in scenario.objects]
        assert result == partition_reference(records_of(rates), params)
    zeros = [sum(r == 0.0 for r in rates.values()) for rates, _ in plans[1:]]
    ties = [len(rates) - len(set(rates.values())) for rates, _ in plans[1:]]
    assert min(zeros) > 0 and min(ties) > 0
    # the cut moves as demand is observed, and one plan is refused
    assert {len(result.partition.published) for _, result in plans} == {0, 1, 2}
    assert {result.feasible for _, result in plans} == {True, False}


class TestBatching:
    def test_zero_window_answers_individually(self):
        server = BatchingServer(0.0)
        sent = []
        for t in (0, 1, 2):
            assert server.submit("a", t) == t
            fired = server.advance(t)
            assert len(fired) == 1 and fired[0].response_time == t
            sent += fired
        assert len(sent) == 3
        assert sum(m.saved_transmissions for m in sent) == 0

    def test_same_slot_duplicates_with_zero_window(self):
        server = BatchingServer(0.0)
        server.submit("a", 5)
        server.submit("a", 5)
        fired = server.advance(5)
        assert len(fired) == 2
        assert all(m.size == 1 for m in fired)

    def test_window_batches_and_waits(self):
        server = BatchingServer(5.0)
        promised = [server.submit("a", t) for t in (0, 1, 2)]
        assert server.advance(4) == []
        fired = server.advance(5)
        assert len(fired) == 1
        m = fired[0]
        assert m.response_time == 5.0
        assert promised == [m.response_time] * 3  # known when each joined
        assert m.size == 3
        assert m.saved_transmissions == 2

    def test_distinct_objects_never_share_a_batch(self):
        server = BatchingServer(5.0)
        server.submit("a", 0)
        server.submit("b", 1)
        fired = server.advance(10)
        assert len(fired) == 2

    def test_boundary_arrival_starts_new_batch(self):
        server = BatchingServer(5.0)
        server.submit("a", 0)
        server.submit("a", 5)  # exactly at the firing instant
        fired = server.advance(20)
        assert [m.size for m in fired] == [1, 1]

    def test_fired_order_is_response_time_then_id(self):
        # advance promises no order: the multicasts, sorted
        server = BatchingServer(3.0)
        for oid, t in [("d", 2), ("b", 0), ("c", 1), ("a", 2), ("b", 1)]:
            server.submit(oid, t)
        fired = server.advance(5)
        assert sorted((m.response_time, m.object_id) for m in fired) == [
            (3.0, "b"), (4.0, "c"), (5.0, "a"), (5.0, "d"),
        ]
        assert server.advance(10) == []

    def test_sealed_batch_fires_before_the_open_one(self):
        # at window 0 a same-slot duplicate seals the first batch and opens
        # another with the same (response_time, object_id); a multicast
        # keeps no arrival times, so the two are equal and only their count
        # can be checked, in the multicasts sorted
        server = BatchingServer(0.0)
        for oid, t in [("c", 5.0), ("a", 0.0), ("b", 0.0), ("a", -0.0)]:
            server.submit(oid, t)
        fired = server.advance(5)
        assert sorted((m.response_time, m.object_id) for m in fired) == [
            (0.0, "a"), (0.0, "a"), (0.0, "b"), (5.0, "c"),
        ]

    def test_conservation_against_zero_window(self, rng):
        arrivals = sorted(
            (int(t), f"o{int(o)}")
            for t, o in zip(rng.uniform(0, 50, size=120), rng.integers(0, 5, size=120))
        )
        for window in (0.0, 1.0, 3.0, 10.0):
            server = BatchingServer(window)
            fired = []
            for t, oid in arrivals:
                server.submit(oid, t)
                fired += server.advance(t)
            fired += server.advance(math.inf)
            saved = sum(m.saved_transmissions for m in fired)
            assert len(fired) + saved == len(arrivals)
