"""Seeded inputs for the four benchmark workloads.

Three engine workloads are scenario documents run the way ``aircell run``
runs one seed: ``scenario_from_dict`` -> ``sim.run`` -> ``to_json_bytes``.
The fourth, ``planner_toolkit``, drives the retrieval planners and the
fidelity selector directly, because the engine never reaches them.

Every input is a pure function of the seed. The scenario's own ``seed`` is
the benchmark seed, so the engine draws its workload from it too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

ENGINE_WORKLOADS = ("p2p_lru", "p2p_qf_churn", "broadcast_replan")
WORKLOADS = ENGINE_WORKLOADS + ("planner_toolkit",)

# QoS the p2p clients ask of cached copies: the value of the repository's
# documented p2p scenario and of its simulation tests. Being nonzero, it
# makes the freshness model decide every cached answer, so the QoS gate is
# not vacuous.
P2P_QOS = 0.3


def p2p_lru(seed: int) -> dict:
    """40 active LRU clients on a degree-4 ring plus 160 idle clients."""
    active, idle = 40, 160
    ids = [f"c{i:03d}" for i in range(active + idle)]
    clients = [
        {
            "client_id": cid, "cache_capacity": 16, "policy": "lru",
            "default_qos": P2P_QOS, "request_rate": 0.05 if i < active else 0.0,
        }
        for i, cid in enumerate(ids)
    ]
    adjacency = {
        ids[i]: [ids[(i + step) % active] for step in (-2, -1, 1, 2)]
        for i in range(active)
    }
    adjacency.update({cid: [] for cid in ids[active:]})
    return {
        "seed": seed,
        "duration_slots": 16_000,
        "objects": {"count": 200, "mtbu": 400.0, "stdv_mtbu": 80.0},
        "clients": clients,
        "adjacency": adjacency,
        "workload": {"zipf_theta": 0.8},
    }


def p2p_qf_churn(seed: int) -> dict:
    """24 small caches cycling the score and TTL policies over fast writers."""
    policies = ("acqf", "cqf", "ttl_requery", "acqf")
    clients = [
        {
            "client_id": f"c{i:02d}", "cache_capacity": 6,
            "policy": policies[i % len(policies)],
            "default_qos": P2P_QOS, "request_rate": 0.08,
        }
        for i in range(24)
    ]
    return {
        "seed": seed,
        "duration_slots": 6_000,
        "objects": {"count": 120, "mtbu_range": [20.0, 200.0]},
        "clients": clients,
        "adjacency": {"kind": "ring", "degree": 4},
        "cache": {"default_ttl": 60.0},
        "workload": {"zipf_theta": 0.6},
    }


def broadcast_replan(seed: int) -> dict:
    """A 4-channel broadcast cell that re-partitions 500 objects every 100 slots."""
    return {
        "seed": seed,
        "duration_slots": 8_000,
        "resolution_mode": "broadcast",
        "objects": {"count": 500, "mtbu": 400.0, "stdv_mtbu": 80.0},
        "clients": {"count": 20, "request_rate": 0.1},
        "toggles": {"caching": False},
        "cell": {
            "channels": 4, "scheme": "one_m", "m": 4, "threshold": 5.0,
            "batching_window": 4, "replan_interval": 100,
        },
    }


SCENARIOS = {
    "p2p_lru": p2p_lru,
    "p2p_qf_churn": p2p_qf_churn,
    "broadcast_replan": broadcast_replan,
}


# --------------------------------------------------------------------------
# planner_toolkit
# --------------------------------------------------------------------------

# (channels, index replicas m, published objects) of each program. A fixed
# grid rather than drawn shapes: cycle length sets response time, so drawn
# shapes would make the mean response swing from seed to seed.
LAYOUTS = tuple(
    (channels, m, n_objects)
    for channels in (2, 3, 4) for m in (2, 3, 4) for n_objects in (48, 96)
)
# requests per program by size k; exhaustive search (k <= 7) dominates the cost
REQUESTS_PER_SIZE = {3: 6, 5: 6, 7: 1, 10: 6}
BRUTE_FORCE_MAX_K = 7
SELECTIONS = 12
SUPPLIERS = 4
SAMPLES_PER_SUPPLIER = 30
GRID_POINTS = 24

RESOLUTIONS = (240, 360, 480, 720, 1080)
CODECS = ("h263", "h264", "vp8")
FRAME_RATE = (5.0, 30.0)
UTILITY_TABLES = {
    "resolution": {240: 0.2, 360: 0.4, 480: 0.6, 720: 0.85, 1080: 1.0},
    "codec": {"h263": 0.5, "h264": 1.0, "vp8": 0.8},
}
FRAME_RATE_KNEES = (8.0, 24.0)
WEIGHTS = (0.6, 0.3, 0.8)
RESOURCES = ("bandwidth", "cpu")


@dataclass(frozen=True)
class SupplierInputs:
    supplier: object  # fidelity.Supplier
    store: object  # fidelity.SampleStore of noisy logged samples


@dataclass(frozen=True)
class PlannerInputs:
    requests: tuple  # retrieval.RetrievalRequest, over seeded programs
    cost: object  # retrieval.CostModel
    domain: object  # fidelity.FidelityDomain
    utilities: tuple  # fidelity.UtilityFn per parameter
    suppliers: tuple[SupplierInputs, ...]
    limits: tuple[dict[str, float], ...]  # live resource limits per selection


def planner_inputs(seed: int, aircell) -> PlannerInputs:
    """Programs, retrieval requests and fidelity samples drawn from ``seed``."""
    air_schedule, retrieval, fidelity = (
        aircell.air_schedule, aircell.retrieval, aircell.fidelity
    )
    rng = np.random.default_rng([seed, 0x706C616E])

    requests = []
    for channels, m, n_objects in LAYOUTS:
        published = [f"o{i:03d}" for i in rng.permutation(n_objects)]
        program = air_schedule.build_program(published, channels, air_schedule.one_m(m))
        for k, count in REQUESTS_PER_SIZE.items():
            for _ in range(count):
                desired = rng.choice(published, size=k, replace=False)
                start = int(rng.integers(0, 2 * program.cycle_len_slots))
                requests.append(
                    retrieval.RetrievalRequest(
                        frozenset(str(o) for o in desired), program, start
                    )
                )

    domain = fidelity.FidelityDomain((
        fidelity.discrete("resolution", RESOLUTIONS),
        fidelity.discrete("codec", CODECS),
        fidelity.continuous("frame_rate", *FRAME_RATE),
    ))
    utilities = (
        fidelity.table_utility(UTILITY_TABLES["resolution"]),
        fidelity.table_utility(UTILITY_TABLES["codec"]),
        fidelity.sigmoid_utility(*FRAME_RATE_KNEES),
    )
    grid = domain.grid(GRID_POINTS)
    coords = np.array([domain.encode(c) for c in grid])

    suppliers = []
    lo_hi = {r: [np.inf, -np.inf] for r in RESOURCES}
    preferences = rng.uniform(0.5, 1.0, size=SUPPLIERS)
    for s, f_s in enumerate(preferences):
        truth = {
            r: (rng.uniform(0.5, 2.0, size=3) * (0.01, 1.0, 0.2), rng.uniform(0.5, 2.0))
            for r in RESOURCES
        }
        store = fidelity.SampleStore(domain)
        for i in rng.choice(len(grid), size=SAMPLES_PER_SUPPLIER, replace=False):
            measured = {}
            for r, (coef, intercept) in truth.items():
                exact = float(coords[i] @ coef + intercept)
                measured[r] = exact * (1.0 + 0.02 * float(rng.standard_normal()))
            fidelity.log_sample(store, grid[i], measured)
        for r, (coef, intercept) in truth.items():
            predicted = coords @ coef + intercept
            lo_hi[r][0] = min(lo_hi[r][0], float(predicted.min()))
            lo_hi[r][1] = max(lo_hi[r][1], float(predicted.max()))
        suppliers.append(
            SupplierInputs(fidelity.Supplier(f"s{s}", float(f_s), domain), store)
        )

    # Limits sit well above the cheapest configuration of the cheapest
    # supplier, so every selection has a feasible answer despite fit noise.
    limits = tuple(
        {
            r: lo + float(rng.uniform(0.35, 0.9)) * (hi - lo)
            for r, (lo, hi) in lo_hi.items()
        }
        for _ in range(SELECTIONS)
    )
    return PlannerInputs(
        tuple(requests), retrieval.CostModel(), domain, utilities,
        tuple(suppliers), limits,
    )


def feasible_utilities(inputs: PlannerInputs, models_by_supplier, limits) -> list:
    """Every feasible (utility, supplier_id, config) over every supplier's grid.

    Written against the formulas, not the library's selector: predicted
    consumption is intercept + coefficients . coordinates, utility is
    f_s * prod u_p(c_p) ** w_p with table utilities and a logistic through
    0.05 and 0.95 at the frame-rate knees.
    """
    resolution_axis = RESOLUTIONS
    codec_axis = CODECS
    rate_axis = np.linspace(*FRAME_RATE, GRID_POINTS)
    lo, hi = FRAME_RATE_KNEES
    spread = (hi - lo) / (2.0 * np.log(19.0))
    best = []
    for entry in inputs.suppliers:
        f_s = entry.supplier.f_s
        models = models_by_supplier[entry.supplier.supplier_id]
        for res, codec, rate in itertools.product(resolution_axis, codec_axis, rate_axis):
            coords = (float(res), float(codec_axis.index(codec)), float(rate))
            feasible = all(
                m.intercept + sum(c * v for c, v in zip(m.coefficients, coords))
                <= limits[m.resource_id]
                for m in models
                if m.resource_id in limits
            )
            if not feasible:
                continue
            rate_u = 1.0 / (1.0 + np.exp(-(rate - 0.5 * (lo + hi)) / spread))
            u = f_s * (
                UTILITY_TABLES["resolution"][res] ** WEIGHTS[0]
                * UTILITY_TABLES["codec"][codec] ** WEIGHTS[1]
                * float(rate_u) ** WEIGHTS[2]
            )
            best.append((u, entry.supplier.supplier_id, (res, codec, float(rate))))
    return best
