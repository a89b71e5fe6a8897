import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aircell.fidelity import (
    FidelityDomain,
    InsufficientSamples,
    NoConfiguration,
    Parameter,
    RankDeficient,
    ResourceModel,
    SampleStore,
    Supplier,
    config_utility,
    continuous,
    discrete,
    feasible_configs,
    fit_models,
    log_sample,
    maximize_utility,
    sigmoid_eval,
    sigmoid_utility,
    table_utility,
)
from oracles import (
    exhaustive_max_utility,
    feasible_configs_reference,
    maximize_utility_reference,
)

TWO_PARAMS = FidelityDomain((continuous("p1", 0.0, 10.0), continuous("p2", 0.0, 10.0)))


def filled_store(coef=(2.0, 3.0), intercept=1.0, n=12, noise=0.0, seed=7):
    rng = np.random.default_rng(seed)
    store = SampleStore(TWO_PARAMS)
    for _ in range(n):
        p1, p2 = rng.uniform(0, 10, size=2)
        value = coef[0] * p1 + coef[1] * p2 + intercept + noise * rng.normal()
        log_sample(store, (p1, p2), {"bandwidth": float(value)})
    return store


class TestSampleStore:
    def test_first_sample(self):
        store = SampleStore(TWO_PARAMS)
        log_sample(store, (1.0, 2.0), {"bandwidth": 9.0})
        assert len(store.samples) == 1

    def test_duplicate_configs_both_kept(self):
        store = SampleStore(TWO_PARAMS)
        log_sample(store, (1.0, 2.0), {"bandwidth": 9.0})
        log_sample(store, (1.0, 2.0), {"bandwidth": 9.4})
        assert len(store.samples) == 2

    def test_out_of_domain_rejected(self):
        store = SampleStore(TWO_PARAMS)
        with pytest.raises(ValueError):
            log_sample(store, (11.0, 2.0), {"bandwidth": 9.0})
        with pytest.raises(ValueError):
            log_sample(store, (1.0,), {"bandwidth": 9.0})  # missing parameter


class TestFitModels:
    def test_noiseless_recovery(self):
        models = fit_models(filled_store())
        model = models[0]
        assert model.resource_id == "bandwidth"
        assert model.coefficients == pytest.approx((2.0, 3.0), abs=1e-6)
        assert model.intercept == pytest.approx(1.0, abs=1e-6)
        assert model.predict((1.0, 1.0)) == pytest.approx(6.0, abs=1e-6)

    def test_underdetermined(self):
        store = filled_store(n=2)
        with pytest.raises(InsufficientSamples):
            fit_models(store)

    def test_rank_deficient(self):
        store = SampleStore(TWO_PARAMS)
        for p in (1.0, 2.0, 3.0, 4.0):
            log_sample(store, (p, 2 * p), {"cpu": 5 * p})  # p2 collinear with p1
        with pytest.raises(RankDeficient):
            fit_models(store)

    def test_noisy_fit_within_standard_errors(self):
        sigma = 0.1
        store = filled_store(n=1000, noise=sigma, seed=11)
        model = fit_models(store)[0]
        x = np.array([[c[0], c[1], 1.0] for c, _ in store.samples])
        y = np.array([m["bandwidth"] for _, m in store.samples])
        covariance = sigma * sigma * np.linalg.inv(x.T @ x)
        stderr = np.sqrt(np.diag(covariance))
        fitted = np.array([*model.coefficients, model.intercept])
        assert np.all(np.abs(fitted - np.array([2.0, 3.0, 1.0])) <= 3 * stderr)
        # svd-based reference solves the same problem by a different route
        reference, *_ = np.linalg.lstsq(x, y, rcond=None)
        assert fitted == pytest.approx(reference, abs=1e-8)

    def test_normal_equations_residual(self):
        store = filled_store(n=400, noise=0.5, seed=3)
        model = fit_models(store)[0]
        x = np.array([[c[0], c[1], 1.0] for c, _ in store.samples])
        y = np.array([m["bandwidth"] for _, m in store.samples])
        beta = np.array([*model.coefficients, model.intercept])
        gradient = x.T @ x @ beta - x.T @ y
        assert np.linalg.norm(gradient) <= 1e-9 * np.linalg.norm(x.T @ y)


FRAME_RATE = discrete("frame_rate", (20, 30, 40))
RESOLUTION = discrete("resolution", ("high", "low"))
VIDEO = FidelityDomain((FRAME_RATE, RESOLUTION))


class TestFeasibleConfigs:
    def test_unbounded_limits_give_full_cartesian_domain(self):
        configs = feasible_configs([], VIDEO, available=None)
        assert len(configs) == 6
        assert set(configs) == {
            (20, "low"), (30, "low"), (40, "low"),
            (20, "high"), (30, "high"), (40, "high"),
        }

    def test_zero_budget_with_positive_intercept_is_empty(self):
        domain = FidelityDomain((discrete("p", (1.0, 2.0)),))
        model = ResourceModel("bw", (1.0,), intercept=0.5)
        assert feasible_configs([model], domain, {"bw": 0.0}) == []

    def test_monotone_model_keeps_lower_left_orthant(self):
        domain = FidelityDomain(
            (discrete("p1", (1.0, 2.0, 3.0, 4.0)), discrete("p2", (1.0, 2.0, 3.0)))
        )
        model = ResourceModel("bw", (2.0, 3.0), intercept=0.0)
        got = set(feasible_configs([model], domain, {"bw": 10.0}))
        expected = {
            cfg for cfg in domain.grid() if 2.0 * cfg[0] + 3.0 * cfg[1] <= 10.0
        }
        assert got == expected
        for p1, p2 in got:  # orthant closure
            for q1, q2 in got:
                if q1 <= p1 and q2 <= p2:
                    assert (q1, q2) in got

    def test_empty_feasible_set_is_a_valid_outcome(self):
        model = ResourceModel("bw", (1.0, 0.0), intercept=100.0)
        domain = FidelityDomain((discrete("p1", (1.0,)), discrete("p2", (1.0,))))
        assert feasible_configs([model], domain, {"bw": 1.0}) == []

    @pytest.mark.parametrize("available", [None, {"bw": 30.0}])
    def test_each_axis_is_discretized_once(self, monkeypatch, available):
        asked = []
        grid_values = Parameter.grid_values
        monkeypatch.setattr(Parameter, "grid_values",
                            lambda p, points: asked.append(p.name) or grid_values(p, points))
        domain = FidelityDomain((continuous("p1", 0.0, 10.0), discrete("p2", (1.0, 2.0)),
                                 continuous("p3", -1.0, 1.0)))
        model = ResourceModel("bw", (2.0, 3.0, 1.0), intercept=1.0)
        kept = feasible_configs([model], domain, available, continuous_points=5)
        assert sorted(asked) == ["p1", "p2", "p3"]
        assert kept == feasible_configs_reference([model], domain, available, 5)


# integers over a prime: floats whose sums and products round
finite = st.integers(-500_000, 500_000).map(lambda i: i / 9973)
parameters = st.one_of(
    st.lists(finite, min_size=1, max_size=4, unique=True),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4, unique=True),
    st.lists(st.sampled_from("abcde"), min_size=1, max_size=4, unique=True),
    st.just([True, False]),
).map(lambda values: ("discrete", tuple(values))) | st.tuples(
    finite, st.floats(0.5, 20.0),
).map(lambda lo_w: ("continuous", (lo_w[0], lo_w[0] + lo_w[1])))


# the ends of the floats: sums that overflow, and inf * 0 on a zero coordinate
extreme = st.sampled_from((1e308, -1e308, math.inf, -math.inf))


@st.composite
def filter_instances(draw, numbers=finite):
    """A domain, models over it, and limits, some set exactly on a prediction.
    ``numbers`` draws the coefficients, the intercepts and the limits."""
    axes = draw(st.lists(parameters, max_size=4))
    domain = FidelityDomain(tuple(
        continuous(f"p{i}", *values) if kind == "continuous" else discrete(f"p{i}", values)
        for i, (kind, values) in enumerate(axes)
    ))
    points = draw(st.integers(1, 5))
    models = draw(st.lists(st.builds(
        ResourceModel, st.sampled_from(("bw", "cpu", "mem")),
        st.lists(numbers, min_size=max(0, len(axes) - 1), max_size=len(axes) + 1).map(tuple),
        numbers,
    ), max_size=3))
    limits = draw(st.one_of(st.none(), st.dictionaries(
        st.sampled_from(("bw", "cpu")),
        st.one_of(numbers, st.just(math.inf)), max_size=2,
    )))
    grid = domain.grid(points)
    if limits and models and draw(st.booleans()):
        model = draw(st.sampled_from(models))
        cfg = draw(st.sampled_from(grid))
        limits[model.resource_id] = model.predict(domain.encode(cfg))
    return models, domain, limits, points


# summed in another order, the terms of (0.9, 1.9, 0.7) come to 5.03, one
# ulp above the limit that predict gives it
ROUNDING = FidelityDomain(tuple(
    discrete(f"p{i}", values)
    for i, values in enumerate(((0.9, 3.3), (0.9, 1.9), (0.7, 1.7)))
))
ROUNDING_MODEL = ResourceModel("bw", (2.9, 0.2, 1.2), 1.2)


class TestFeasibleConfigsOracle:
    def test_a_limit_on_a_prediction_keeps_that_configuration(self):
        limit = ROUNDING_MODEL.predict(ROUNDING.encode((0.9, 1.9, 0.7)))
        assert limit == 5.029999999999999
        kept = feasible_configs([ROUNDING_MODEL], ROUNDING, {"bw": limit})
        assert (0.9, 1.9, 0.7) in kept
        assert kept == feasible_configs_reference([ROUNDING_MODEL], ROUNDING, {"bw": limit})

    @settings(max_examples=400, deadline=None)
    @given(filter_instances())
    def test_matches_the_per_point_filter(self, instance):
        got = feasible_configs(*instance)
        expected = feasible_configs_reference(*instance)
        assert got == expected
        assert [tuple(map(type, c)) for c in got] == [
            tuple(map(type, c)) for c in expected
        ]

    def test_inf_against_a_zero_coordinate_fails_silently(self):
        domain = FidelityDomain((discrete("p", (0, 1)), discrete("q", (1.0, 2.0))))
        model = ResourceModel("bw", (math.inf, 1e308), -1e308)
        # inf * 0 is nan, which fits no limit; inf + 1e308 * q is inf
        assert feasible_configs([model], domain, {"bw": math.inf}) == [(1, 1.0), (1, 2.0)]
        # 1e308 + 1e308 * 2.0 overflows to inf, over a finite limit
        overflow = ResourceModel("bw", (1e308, 1e308), 0.0)
        assert feasible_configs([overflow], domain, {"bw": 1e308}) == [(0, 1.0)]
        for m, limit in ((model, math.inf), (model, 1e308), (overflow, 1e308)):
            assert feasible_configs([m], domain, {"bw": limit}) == (
                feasible_configs_reference([m], domain, {"bw": limit})
            )

    # the suite turns RuntimeWarning into an error: an overflow or inf * 0
    # in the array filter must be as silent as in Python floats
    @settings(max_examples=400, deadline=None)
    @given(filter_instances(finite | extreme))
    def test_extreme_floats_match_the_per_point_filter(self, instance):
        assert feasible_configs(*instance) == feasible_configs_reference(*instance)


class TestConfigUtility:
    UTILS = [table_utility({"a": 0.8, "b": 0.2})]

    def test_single_parameter(self):
        assert config_utility(("a",), self.UTILS, [1.0], f_s=1.0) == pytest.approx(0.8)

    def test_zero_factor_zeroes_everything(self):
        utils = [table_utility({"a": 0.0}), table_utility({"x": 0.9})]
        assert config_utility(("a", "x"), utils, [1.0, 1.0], f_s=1.0) == 0.0

    def test_zero_weight_neutralizes(self):
        assert config_utility(("a",), self.UTILS, [0.0], f_s=1.0) == 1.0
        utils = [table_utility({"a": 0.0})]
        assert config_utility(("a",), utils, [0.0], f_s=0.7) == pytest.approx(0.7)

    def test_bounded_and_monotone_in_factors(self, rng):
        for _ in range(200):
            values = rng.uniform(0, 1, size=3)
            weights = rng.uniform(0, 1, size=3)
            f_s = float(rng.uniform(0, 1))
            utils = [table_utility({"v": float(v)}) for v in values]
            u = config_utility(("v", "v", "v"), utils, list(weights), f_s)
            assert 0.0 <= u <= 1.0
            shrunk = [table_utility({"v": float(v * rng.uniform(0, 1))}) for v in values]
            assert config_utility(("v", "v", "v"), shrunk, list(weights), f_s) <= u + 1e-12

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError):
            config_utility(("a",), self.UTILS, [1.5], f_s=1.0)


class TestSigmoid:
    FN = sigmoid_utility(2.0, 8.0)

    def test_midpoint(self):
        assert sigmoid_eval(self.FN, 5.0) == pytest.approx(0.5, abs=1e-12)

    def test_knee_anchors(self):
        assert sigmoid_eval(self.FN, 2.0) == pytest.approx(0.05, abs=1e-12)
        assert sigmoid_eval(self.FN, 8.0) == pytest.approx(0.95, abs=1e-12)

    def test_asymptotes(self):
        assert sigmoid_eval(self.FN, 1e6) == pytest.approx(1.0)
        assert sigmoid_eval(self.FN, -1e6) == pytest.approx(0.0)

    def test_strictly_monotone_and_open_bounded(self):
        xs = np.linspace(-30, 30, 301)
        ys = [sigmoid_eval(self.FN, x) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))
        assert all(0.0 < y < 1.0 for y in ys)


def random_problem(rng):
    n_params = int(rng.integers(1, 4))
    params, utilities, weights = [], [], []
    for i in range(n_params):
        values = tuple(float(v) for v in sorted(rng.uniform(0, 10, size=int(rng.integers(2, 4)))))
        params.append(discrete(f"p{i}", values))
        utilities.append(table_utility({v: float(rng.uniform(0, 1)) for v in values}))
        weights.append(float(rng.uniform(0, 1)))
    domain = FidelityDomain(tuple(params))
    suppliers = [
        Supplier(f"s{i}", float(rng.uniform(0, 1)), domain)
        for i in range(int(rng.integers(1, 5)))
    ]
    feasible = {}
    grid = domain.grid()
    for s in suppliers:
        count = int(rng.integers(0, len(grid) + 1))
        picks = rng.choice(len(grid), size=count, replace=False)
        feasible[s.supplier_id] = [grid[int(i)] for i in sorted(picks)]
    return suppliers, utilities, weights, feasible


class TestMaximizeUtility:
    def test_early_stop_skips_dominated_supplier(self):
        domain = FidelityDomain((discrete("p", ("hi",)),))
        suppliers = [Supplier("best", 0.9, domain), Supplier("worse", 0.5, domain)]
        utilities = [table_utility({"hi": 2.0 / 3.0})]
        feasible = {"best": [("hi",)], "worse": [("hi",)]}
        result = maximize_utility(suppliers, utilities, [1.0], feasible)
        assert result.utility == pytest.approx(0.6)
        assert result.supplier_id == "best"
        assert result.evaluated_suppliers == ("best",)

    def test_single_supplier_plain_argmax(self):
        domain = FidelityDomain((discrete("p", ("a", "b")),))
        utilities = [table_utility({"a": 0.3, "b": 0.7})]
        result = maximize_utility(
            [Supplier("s", 0.8, domain)], utilities, [1.0],
            {"s": [("a",), ("b",)]},
        )
        assert result.config == ("b",)
        assert result.utility == pytest.approx(0.8 * 0.7)

    def test_all_empty_feasible_sets(self):
        domain = FidelityDomain((discrete("p", ("a",)),))
        with pytest.raises(NoConfiguration):
            maximize_utility([Supplier("s", 0.5, domain)], [table_utility({"a": 1.0})],
                             [1.0], {"s": []})

    def test_matches_exhaustive_oracle(self, rng):
        checked = 0
        for _ in range(300):
            suppliers, utilities, weights, feasible = random_problem(rng)
            oracle = exhaustive_max_utility(suppliers, utilities, weights, feasible)
            if oracle is None:
                with pytest.raises(NoConfiguration):
                    maximize_utility(suppliers, utilities, weights, feasible)
                continue
            result = maximize_utility(suppliers, utilities, weights, feasible)
            assert result.utility == oracle[0]
            achieved = config_utility(
                result.config, utilities, weights,
                next(s.f_s for s in suppliers if s.supplier_id == result.supplier_id),
            )
            assert achieved == result.utility
            checked += 1
        assert checked > 200

    def test_early_stop_engages_whenever_gaps_permit(self, rng):
        for _ in range(100):
            suppliers, utilities, weights, feasible = random_problem(rng)
            if exhaustive_max_utility(suppliers, utilities, weights, feasible) is None:
                continue
            result = maximize_utility(suppliers, utilities, weights, feasible)
            ordered = sorted(suppliers, key=lambda s: (-s.f_s, s.supplier_id))
            visited = set(result.evaluated_suppliers)
            running_best = None
            for s in ordered:
                if running_best is not None and s.f_s < running_best:
                    assert s.supplier_id not in visited
                else:
                    assert s.supplier_id in visited
                    for cfg in feasible.get(s.supplier_id, ()):
                        u = config_utility(cfg, utilities, weights, s.f_s)
                        if running_best is None or u > running_best:
                            running_best = u


unit = st.floats(0.0, 1.0)


@st.composite
def selection_problems(draw):
    """Suppliers over one domain of table and sigmoid parameters, some
    continuous (grid values ``np.float64``), with weights and a feasible
    subset of the grid per supplier, some suppliers tied on preference."""
    params, utilities = [], []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("numbers", "labels", "continuous")))
        if kind == "continuous":
            lo = draw(finite)
            params.append(continuous(f"p{i}", lo, lo + draw(st.floats(0.5, 20.0))))
            knee = draw(finite)
            utilities.append(sigmoid_utility(knee, knee + draw(st.floats(0.1, 30.0))))
            continue
        values = draw(st.lists(
            st.integers(-5, 5) if kind == "numbers" else st.sampled_from("abcde"),
            min_size=1, max_size=4, unique=True,
        ))
        params.append(discrete(f"p{i}", values))
        if kind == "numbers" and draw(st.booleans()):
            utilities.append(sigmoid_utility(-3.0, 3.0))
        else:
            utilities.append(table_utility({v: draw(unit) for v in values}))
    domain = FidelityDomain(tuple(params))
    grid = domain.grid(draw(st.integers(1, 5)))
    suppliers = [
        Supplier(f"s{i}", draw(st.sampled_from((0.5, 0.9, 1.0)) | unit), domain)
        for i in range(draw(st.integers(1, 4)))
    ]
    feasible = {
        s.supplier_id: [grid[j] for j in draw(st.lists(
            st.integers(0, len(grid) - 1), max_size=12, unique=True))]
        for s in suppliers if draw(st.booleans()) or s is suppliers[0]
    }
    weights = [draw(unit) for _ in params]
    return suppliers, utilities, weights, feasible


class TestSelectionAgainstConfigUtility:
    """The selection scores as one config_utility call per configuration."""

    @settings(max_examples=300, deadline=None)
    @given(selection_problems())
    def test_same_result_to_the_bit(self, problem):
        try:
            expected = maximize_utility_reference(*problem)
        except NoConfiguration as refused:
            with pytest.raises(NoConfiguration) as raised:
                maximize_utility(*problem)
            assert raised.value.evaluated_suppliers == refused.evaluated_suppliers
            return
        result = maximize_utility(*problem)
        assert result == expected
        assert result.utility.hex() == expected.utility.hex()
        assert [type(v) for v in result.config] == [type(v) for v in expected.config]

    DOMAIN = FidelityDomain((discrete("p", ("a", "b")), discrete("q", ("x",))))
    UTILITIES = [table_utility({"a": 0.8}), table_utility({"x": 1.0})]

    @pytest.mark.parametrize("utilities, weights, config", [
        (UTILITIES, [1.0, 1.0], ("b", "x")),  # no utility mapped for "b"
        (UTILITIES, [1.0, 1.5], ("a", "x")),  # a weight above 1
        (UTILITIES, [-0.5, 1.0], ("a", "x")),  # a weight below 0
        (UTILITIES, [1.0, 1.0], ("a",)),  # a configuration too short
        (UTILITIES, [1.0], ("a", "x")),  # fewer weights than utilities
    ])
    def test_errors_are_config_utilitys_when_a_configuration_is_scored(
        self, utilities, weights, config
    ):
        supplier = Supplier("s", 0.8, self.DOMAIN)
        with pytest.raises(ValueError) as scored:
            config_utility(config, utilities, weights, supplier.f_s)
        with pytest.raises(ValueError) as selected:
            maximize_utility([supplier], utilities, weights, {"s": [config]})
        assert str(selected.value) == str(scored.value)
        # and none while nothing is scored
        with pytest.raises(NoConfiguration) as refused:
            maximize_utility([supplier], utilities, weights, {"s": []})
        assert refused.value.evaluated_suppliers == ("s",)

    def test_a_configuration_after_the_early_stop_is_never_scored(self):
        # "b" has no utility: only scoring the worse supplier's configuration raises
        best, worse = Supplier("best", 0.9, self.DOMAIN), Supplier("worse", 0.5, self.DOMAIN)
        feasible = {"best": [("a", "x")], "worse": [("b", "x")]}
        result = maximize_utility([worse, best], self.UTILITIES, [1.0, 1.0], feasible)
        assert (result.supplier_id, result.evaluated_suppliers) == ("best", ("best",))
        with pytest.raises(ValueError, match="no utility mapped"):
            maximize_utility([worse, best], self.UTILITIES, [1.0, 1.0], dict(feasible, best=[]))
