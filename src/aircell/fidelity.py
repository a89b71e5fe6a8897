"""Adaptive fidelity: consumption models, utilities, and configuration choice.

Logging collects (configuration, measured consumption) samples per
resource, and learning fits one linear model per resource by ordinary
least squares over the fidelity parameters. Selection keeps the grid
configurations whose predicted consumption fits the resource limits, one
boolean array mask over the grid, and chooses, across suppliers, the one
with the greatest utility

    f_s * prod_p F_p(c_p) ** w_p

visiting suppliers in descending preference f_s and stopping once no
remaining f_s can beat the best utility found (the product is at most 1).
Each factor ``F_p(v) ** w_p`` is evaluated once per distinct value within a
selection. The mask and the utilities use the float operations of the
per-configuration definitions, ``ResourceModel.predict`` and
``config_utility``, in their order, so they are those functions' to the bit.
The types here do not check their fields. The one fidelity input the
schema reader in ``sim`` reads is an ``aircell fit`` sample log, which it
checks once; a library caller passes well-formed values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add, getitem, mul
from typing import Iterable, Sequence

import numpy as np


class InsufficientSamples(Exception):
    """Fewer samples than unknown coefficients for some resource."""


class RankDeficient(Exception):
    """The design matrix does not determine the coefficients."""


class NoConfiguration(Exception):
    """Every supplier's feasible configuration set is empty."""

    def __init__(self, evaluated_suppliers: tuple[str, ...]):
        super().__init__("no feasible configuration under any supplier")
        self.evaluated_suppliers = evaluated_suppliers  # in visit order


@dataclass(frozen=True)
class Parameter:
    name: str
    kind: str  # "discrete" | "continuous"
    values: tuple = ()
    lo: float = 0.0
    hi: float = 0.0

    def contains(self, value) -> bool:
        if self.kind == "discrete":
            return value in self.values
        return isinstance(value, (int, float)) and self.lo <= value <= self.hi

    def grid_values(self, continuous_points: int) -> tuple:
        if self.kind == "discrete":
            return self.values
        return tuple(np.linspace(self.lo, self.hi, continuous_points))

    def encode(self, value) -> float:
        """Numeric coordinate of a value; categorical values map to their rank."""
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        return float(self.values.index(value))


def discrete(name: str, values: Iterable) -> Parameter:
    return Parameter(name, "discrete", tuple(values))


def continuous(name: str, lo: float, hi: float) -> Parameter:
    return Parameter(name, "continuous", (), lo, hi)


@dataclass(frozen=True)
class FidelityDomain:
    parameters: tuple[Parameter, ...]

    def contains(self, config: Sequence) -> bool:
        return len(config) == len(self.parameters) and all(
            p.contains(v) for p, v in zip(self.parameters, config)
        )

    def grid(self, continuous_points: int = 32) -> list[tuple]:
        """Full Cartesian configuration domain, continuous axes discretized."""
        axes = [p.grid_values(continuous_points) for p in self.parameters]
        return list(itertools.product(*axes))

    def encode(self, config: Sequence) -> tuple[float, ...]:
        """Numeric coordinates of a configuration, for the linear models."""
        return tuple(p.encode(v) for p, v in zip(self.parameters, config))


@dataclass
class SampleStore:
    """Logged (configuration, per-resource consumption) observations."""

    domain: FidelityDomain
    samples: list[tuple[tuple, dict[str, float]]] = field(default_factory=list)

    def resources(self) -> list[str]:
        seen: set[str] = set()
        for _, measured in self.samples:
            seen.update(measured)
        return sorted(seen)


def log_sample(store: SampleStore, config: Sequence, measured: dict[str, float]) -> SampleStore:
    """Append one observation; the configuration must lie in the domain."""
    config = tuple(config)
    if not store.domain.contains(config):
        raise ValueError(f"configuration {config!r} outside the domain")
    if not measured:
        raise ValueError("no consumption measurements given")
    store.samples.append((config, dict(measured)))
    return store


@dataclass(frozen=True)
class ResourceModel:
    """Linear map from a fidelity configuration to one resource's consumption.

    Operates on numeric coordinates; pass raw configurations through
    ``FidelityDomain.encode`` first so categorical values are well defined.
    """

    resource_id: str
    coefficients: tuple[float, ...]  # one per fidelity parameter
    intercept: float

    def predict(self, encoded_config: Sequence[float]) -> float:
        """The intercept plus the terms ``c * x``, added left to right from 0
        (as ``sum()`` adds floats before CPython 3.12, whose ``sum()`` is
        compensated)."""
        return self.intercept + reduce(
            add, (c * float(v) for c, v in zip(self.coefficients, encoded_config)), 0
        )


def fit_models(store: SampleStore) -> list[ResourceModel]:
    """Ordinary least squares per resource, via the normal equations.

    Solved with a pivoted LU factorization; a rank-deficient design is
    reported rather than regularized away.
    """
    n_params = len(store.domain.parameters)
    models = []
    for resource in store.resources():
        rows = [(cfg, m[resource]) for cfg, m in store.samples if resource in m]
        if len(rows) < n_params + 1:
            raise InsufficientSamples(
                f"{resource}: {len(rows)} samples for {n_params + 1} coefficients"
            )
        x = np.array(
            [list(store.domain.encode(cfg)) + [1.0] for cfg, _ in rows]
        )
        y = np.array([val for _, val in rows])
        if np.linalg.matrix_rank(x) < n_params + 1:
            raise RankDeficient(f"{resource}: design matrix is rank deficient")
        beta = np.linalg.solve(x.T @ x, x.T @ y)
        models.append(
            ResourceModel(resource, tuple(float(b) for b in beta[:-1]), float(beta[-1]))
        )
    return models


def feasible_configs(
    models: Sequence[ResourceModel],
    domain: FidelityDomain,
    available: dict[str, float] | None,
    continuous_points: int = 32,
) -> list[tuple]:
    """Configurations whose predicted consumption fits every resource limit.

    With no limits the full (discretized) Cartesian domain is returned; an
    empty result is a valid outcome meaning nothing fits. The filter is one
    boolean array over the grid. Each axis value is encoded once, and each
    binding model's terms ``c * x`` along an axis form one float64 array,
    shaped to lie along that axis; a model's predictions over the grid are
    then ``intercept + (0 + t_1 + t_2 + ...)``, broadcast axis by axis.
    These are the IEEE operations of ``ResourceModel.predict``, in the same
    order, so exactly the configurations it admits are kept, as the grid's
    own tuples. An overflow or ``inf * 0`` is as silent as in Python floats.
    """
    # each axis's values once, for the grid's tuples and for its coordinates
    axes = [p.grid_values(continuous_points) for p in domain.parameters]
    grid = list(itertools.product(*axes))
    if not available:
        return grid
    shape = [len(axis) for axis in axes]
    # each axis's coordinates, shaped to lie along that axis of the grid
    coords = [
        np.array([p.encode(v) for v in axis], dtype=np.float64).reshape(
            [-1 if d == i else 1 for d in range(len(axes))]
        )
        for i, (p, axis) in enumerate(zip(domain.parameters, axes))
    ]
    fits = np.ones(shape, dtype=bool)
    with np.errstate(all="ignore"):
        for m in models:
            if m.resource_id not in available:
                continue
            # like predict, a model reads only the leading axes it has
            # coefficients for; its sums repeat along the other axes
            sums = 0
            for c, xs in zip(m.coefficients, coords):
                sums = sums + c * xs
            fits &= m.intercept + sums <= available[m.resource_id]
    return list(itertools.compress(grid, fits.ravel().tolist()))


@dataclass(frozen=True)
class UtilityFn:
    """Per-parameter utility: a value table or a two-knee sigmoid."""

    kind: str  # "table" | "sigmoid"
    table: dict = field(default_factory=dict)
    knee_lo: float = 0.0
    knee_hi: float = 1.0

    def eval(self, value) -> float:
        if self.kind == "table":
            if value not in self.table:
                raise ValueError(f"no utility mapped for value {value!r}")
            return self.table[value]
        return sigmoid_eval(self, value)


def table_utility(mapping: dict) -> UtilityFn:
    return UtilityFn("table", dict(mapping))


def sigmoid_utility(knee_lo: float, knee_hi: float) -> UtilityFn:
    return UtilityFn("sigmoid", {}, knee_lo, knee_hi)


# Logistic spread placing utility 0.05 at the lower knee and 0.95 at the upper.
_KNEE_LOGIT = math.log(19.0)


def sigmoid_eval(fn: UtilityFn, x: float) -> float:
    """Monotone logistic utility anchored at the knees, limits 0 and 1."""
    if fn.kind != "sigmoid":
        raise ValueError("not a sigmoid utility")
    mid = 0.5 * (fn.knee_lo + fn.knee_hi)
    spread = (fn.knee_hi - fn.knee_lo) / (2.0 * _KNEE_LOGIT)
    z = (x - mid) / spread
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass(frozen=True)
class Supplier:
    supplier_id: str
    f_s: float  # user's preference for this provider
    domain: FidelityDomain


def _check_weights(weights: Sequence[float]) -> None:
    if any(not 0.0 <= w <= 1.0 for w in weights):
        raise ValueError("weights must be in [0, 1]")


def config_utility(
    config: Sequence,
    utilities: Sequence[UtilityFn],
    weights: Sequence[float],
    f_s: float,
) -> float:
    """Overall utility of one configuration under one supplier.

    Per-parameter utilities are raised to their weights and multiplied, then
    scaled by the supplier preference; any zero factor with positive weight
    zeroes the whole product.
    """
    if not len(config) == len(utilities) == len(weights):
        raise ValueError("config, utilities, and weights lengths differ")
    _check_weights(weights)
    product = 1.0
    for value, fn, w in zip(config, utilities, weights):
        product *= fn.eval(value) ** w
    return f_s * product


@dataclass(frozen=True)
class MaxUtilityResult:
    supplier_id: str
    config: tuple
    utility: float
    evaluated_suppliers: tuple[str, ...]  # in visit order


def maximize_utility(
    suppliers: Sequence[Supplier],
    utilities: Sequence[UtilityFn],
    weights: Sequence[float],
    feasible: dict[str, Sequence[tuple]],
) -> MaxUtilityResult:
    """Utility-maximal (supplier, configuration) with sound early termination.

    Suppliers are visited in descending preference; because the weighted
    product is at most 1, a supplier whose f_s is below the best utility so
    far cannot win, and neither can any later one. The first strictly
    greater utility wins a tie.

    Each factor ``F_p(v) ** w_p`` is evaluated once per distinct value ``v``
    of each parameter within a call, when a configuration first needs it.
    A configuration's utility is ``f_s * (1.0 * f_1 * f_2 * ...)``,
    ``config_utility``'s float operations in its order, so the two agree to
    the bit, and its errors are ``config_utility``'s, raised when it is
    scored.
    """
    ordered = sorted(suppliers, key=lambda s: (-s.f_s, s.supplier_id))
    # a configuration of any length mismatches when these two do
    width = len(utilities) if len(utilities) == len(weights) else None
    factors: list[dict] = [{} for _ in utilities]  # per parameter: value -> F(v) ** w
    weights_checked = False
    best: tuple[float, str, tuple] | None = None
    visited: list[str] = []
    for supplier in ordered:
        if best is not None and supplier.f_s < best[0]:
            break
        visited.append(supplier.supplier_id)
        f_s = supplier.f_s
        for config in feasible.get(supplier.supplier_id, ()):
            if len(config) != width:
                raise ValueError("config, utilities, and weights lengths differ")
            if not weights_checked:
                _check_weights(weights)
                weights_checked = True
            try:
                product = reduce(mul, map(getitem, factors, config), 1.0)
            except KeyError:  # a value not met before: its factors, in order
                for known, fn, w, value in zip(factors, utilities, weights, config):
                    if value not in known:
                        known[value] = fn.eval(value) ** w
                product = reduce(mul, map(getitem, factors, config), 1.0)
            u = f_s * product
            if best is None or u > best[0]:
                best = (u, supplier.supplier_id, tuple(config))
    if best is None:
        raise NoConfiguration(tuple(visited))
    return MaxUtilityResult(best[1], best[2], best[0], tuple(visited))
