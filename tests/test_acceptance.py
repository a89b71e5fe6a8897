"""Acceptance suite: every criterion at its stated tolerance and time budget.

Each test prints one PASS/FAIL line; a FAIL line is followed by the failing
assertions so the reason is visible in the pytest report.
"""

import time

import numpy as np
import pytest

from aircell import air_schedule, broadcast_plan, fidelity, retrieval
from aircell.freshness import FreshnessStats, p_modified, p_not_modified
from aircell.sim import run, scenario_from_dict
from conftest import random_retrieval_instance
from oracles import (
    check_plan,
    exhaustive_max_utility,
    grid_search_split,
    replay_partition,
)

COST = retrieval.CostModel()


def report(number: int, label: str, failures: list[str], elapsed: float, limit: float):
    if elapsed >= limit:
        failures.append(f"runtime {elapsed:.1f}s exceeded the {limit:.0f}s budget")
    verdict = "PASS" if not failures else "FAIL"
    print(f"{verdict} criterion {number}: {label} ({elapsed:.1f}s)")
    assert not failures, failures


def test_criterion_1_freshness_closed_form():
    t0 = time.perf_counter()
    failures = []
    stats = FreshnessStats(100.0, 20.0, 0.0, 10)
    if abs(p_modified(stats, 100.0) - 0.5) > 1e-9:
        failures.append("p_modified at the mean elapsed time is not 0.5")
    for now in (80.0, 100.0, 120.0, 163.0, 420.0):
        if abs(p_modified(stats, now) + p_not_modified(stats, now) - 1.0) > 1e-12:
            failures.append(f"complement identity broken at now={now}")
    rng = np.random.default_rng(101)
    draws = rng.normal(100.0, 20.0, size=100_000)
    while (draws <= 0).any():
        bad = draws <= 0
        draws[bad] = rng.normal(100.0, 20.0, size=int(bad.sum()))
    for t in (80.0, 100.0, 120.0):
        empirical = float((draws <= t).mean())
        if abs(empirical - p_modified(stats, t)) > 0.02:
            failures.append(
                f"Monte-Carlo fraction {empirical:.4f} vs model "
                f"{p_modified(stats, t):.4f} at t={t}"
            )
    report(1, "freshness closed form and Monte-Carlo agreement",
           failures, time.perf_counter() - t0, 5.0)


def test_criterion_2_half_cycle_wait():
    t0 = time.perf_counter()
    failures = []
    k, size, b_b = 8, 1.0, 4.0
    slot_duration = size / b_b
    program = air_schedule.build_program([f"o{i}" for i in range(k)], 1, air_schedule.NONE)
    length = program.cycle_len_slots
    expected = (k * size) / (2.0 * b_b)
    rng = np.random.default_rng(202)
    starts = rng.uniform(0.0, length, size=100_000)
    # wait from a uniformly random arrival instant to the slot of each object
    for oid in ("o0", "o5"):
        slot = program.directory[oid][1]
        waits = ((slot - starts) % length) * slot_duration
        mean = float(waits.mean())
        if abs(mean - expected) / expected > 0.02:
            failures.append(f"{oid}: empirical wait {mean:.4f} vs {expected:.4f}")
    report(2, "half-cycle expected wait for published objects",
           failures, time.perf_counter() - t0, 5.0)


def test_criterion_3_index_wait_and_length_relations():
    t0 = time.perf_counter()
    failures = []
    objs = [f"o{i}" for i in range(8)]
    rng = np.random.default_rng(303)
    lengths = {}
    for m in (1, 2, 4):
        program = air_schedule.build_program(objs, 1, air_schedule.one_m(m))
        length = program.cycle_len_slots
        lengths[m] = length
        expected = air_schedule.expected_index_wait(program)
        if expected != length / (2.0 * m):
            failures.append(f"m={m}: formula wait is not L/(2m)")
        positions = np.array(program.index_slots(0))
        starts = rng.uniform(0.0, length, size=100_000)
        waits = np.min((positions[None, :] - starts[:, None]) % length, axis=1)
        mean = float(waits.mean())
        if abs(mean - expected) / expected > 0.02:
            failures.append(f"m={m}: empirical wait {mean:.4f} vs {expected:.4f}")
    if not (lengths[1] < lengths[2] < lengths[4]):
        failures.append(f"cycle lengths not increasing in m: {lengths}")
    l_none = air_schedule.build_program(objs, 1, air_schedule.NONE).cycle_len_slots
    l_dist = air_schedule.build_program(objs, 1, air_schedule.DISTRIBUTED).cycle_len_slots
    if not all(l_none <= lengths[m] <= l_dist for m in lengths):
        failures.append(f"length ordering violated: none={l_none} dist={l_dist} {lengths}")
    report(3, "replicated index wait and cycle length relations",
           failures, time.perf_counter() - t0, 5.0)


def test_criterion_4_retrieval_optimality():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(404)
    for i in range(1000):
        n_desired = int(rng.integers(1, 7))
        req = random_retrieval_instance(rng, n_desired, max_channels=4, max_cycle=12)
        best = retrieval.brute_force(req, COST)
        rs = retrieval.row_scan(req, COST)
        noa = retrieval.next_object_access(req, COST)
        tsp = retrieval.tsp_order(req, COST)
        for name, plan in (("row_scan", rs), ("next_object", noa), ("tsp", tsp)):
            if best.total_slots > plan.total_slots:
                failures.append(f"instance {i}: brute force beaten by {name}")
            problems = check_plan(plan, req, COST)
            if problems:
                failures.append(f"instance {i}: {name} infeasible: {problems}")
        if check_plan(best, req, COST):
            failures.append(f"instance {i}: brute force plan infeasible")
        used = {req.program.directory[o][0] for o in req.desired}
        if rs.switches != len(used) - 1:
            failures.append(f"instance {i}: row scan switches {rs.switches}")
        if failures:
            break
    report(4, "exhaustive search lower-bounds every heuristic",
           failures, time.perf_counter() - t0, 60.0)


def test_criterion_5_heuristic_ordering_reproduction():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(505)
    gaps = {}
    for count in (3, 5, 8, 10):
        total = {"rs": 0.0, "noa": 0.0, "tsp": 0.0}
        n = 1000
        for _ in range(n):
            req = random_retrieval_instance(rng, count, max_channels=4, max_cycle=12)
            total["rs"] += retrieval.row_scan(req, COST).total_slots
            total["noa"] += retrieval.next_object_access(req, COST).total_slots
            total["tsp"] += retrieval.tsp_order(req, COST).total_slots
        if total["tsp"] > total["noa"]:
            failures.append(f"count {count}: mean tsp above mean next-object")
        if total["tsp"] > total["rs"]:
            failures.append(f"count {count}: mean tsp above mean row scan")
        gaps[count] = (total["rs"] - total["tsp"]) / total["tsp"]
    if not gaps[10] < gaps[3]:
        failures.append(f"row-scan gap did not shrink: {gaps}")
    report(5, "response-time ordering of the retrieval heuristics",
           failures, time.perf_counter() - t0, 120.0)


def test_criterion_6_bandwidth_split_against_grid_oracle():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(606)
    for i in range(100):
        n = int(rng.integers(2, 9))
        rates = {f"o{j}": float(rng.uniform(0.2, 3.0)) for j in range(n)}
        size = float(rng.uniform(0.5, 2.0))
        request = float(rng.uniform(0.0, 0.5))
        bandwidth = float((size + request) * sum(rates.values()) * rng.uniform(1.5, 4.0))
        k = int(rng.integers(1, n))
        order = sorted(rates, key=lambda o: (-rates[o], o))
        pub_rate = sum(rates[o] for o in order[:k])
        od_rate = sum(rates[o] for o in order[k:])
        params = broadcast_plan.PlanParams(bandwidth, request)
        b_b, b_d = broadcast_plan.optimize_bandwidth_split(k, pub_rate, od_rate, params, size)
        grid_b, _ = grid_search_split(k, pub_rate, od_rate, bandwidth, size, request)
        if abs(b_b - grid_b) > 1e-3 * bandwidth:
            failures.append(f"instance {i}: split {b_b:.5f} vs grid {grid_b:.5f}")
        if b_d < 0 or b_b < 0 or abs(b_b + b_d - bandwidth) > 1e-9:
            failures.append(f"instance {i}: split does not partition the bandwidth")
    report(6, "numerical bandwidth split matches the grid-search oracle",
           failures, time.perf_counter() - t0, 10.0)


def test_criterion_7_partition_against_replay_oracle():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(707)
    for i in range(100):
        n = int(rng.integers(2, 12))
        rates = {f"o{j}": float(rng.uniform(0.1, 2.0)) for j in range(n)}
        bandwidth = float(sum(rates.values()) * 1.25 * rng.uniform(1.0, 3.0))
        threshold = float(rng.uniform(0.3, 8.0))
        demands = dict(sorted(rates.items()))
        params = broadcast_plan.PlanParams(bandwidth, 0.25, threshold)
        result = broadcast_plan.partition_objects(demands, params)
        order = broadcast_plan.move_order(demands)
        k = len(result.partition.published)
        if list(result.partition.published) != order[:k]:
            failures.append(f"instance {i}: published set is not a demand prefix")
        oracle_pub, oracle_feasible, _ = replay_partition(
            rates, bandwidth, 1.0, 0.25, threshold
        )
        if result.feasible != oracle_feasible:
            failures.append(f"instance {i}: feasibility {result.feasible} vs oracle")
        elif oracle_feasible and list(result.partition.published) != oracle_pub:
            failures.append(f"instance {i}: k={k} vs oracle k={len(oracle_pub)}")
        if result.feasible:
            if result.access.raw > threshold:
                failures.append(f"instance {i}: returned config violates threshold")
            if k < n:
                try:
                    b_b, b_d = broadcast_plan.optimize_bandwidth_split(
                        k + 1, sum(demands[o] for o in order[: k + 1]),
                        sum(demands[o] for o in order[k + 1 :]), params,
                    )
                    nxt = broadcast_plan.expected_access_time(
                        broadcast_plan.Partition(
                            tuple(order[: k + 1]), tuple(order[k + 1 :]), b_b, b_d
                        ),
                        demands, params,
                    )
                    if nxt.raw <= threshold:
                        failures.append(f"instance {i}: next move also satisfies")
                except broadcast_plan.Unstable:
                    pass
        if failures:
            break
    report(7, "greedy publish partition matches the oracle replay",
           failures, time.perf_counter() - t0, 10.0)


def test_criterion_8_fidelity_learning_and_selection():
    t0 = time.perf_counter()
    failures = []
    # noiseless linear recovery
    domain = fidelity.FidelityDomain(
        (fidelity.continuous("p1", 0.0, 10.0), fidelity.continuous("p2", 0.0, 10.0))
    )
    rng = np.random.default_rng(808)
    store = fidelity.SampleStore(domain)
    for _ in range(25):
        p1, p2 = rng.uniform(0, 10, size=2)
        fidelity.log_sample(
            store, (p1, p2), {"bandwidth": 2.0 * p1 + 3.0 * p2 + 1.0}
        )
    model = fidelity.fit_models(store)[0]
    recovered = (*model.coefficients, model.intercept)
    if any(abs(a - b) > 1e-6 for a, b in zip(recovered, (2.0, 3.0, 1.0))):
        failures.append(f"planted coefficients not recovered: {recovered}")

    # Table-style two-parameter video domain reproduces all 6 configurations
    video = fidelity.FidelityDomain((
        fidelity.discrete("frame_rate", (20, 30, 40)),
        fidelity.discrete("resolution", ("high", "low")),
    ))
    configs = fidelity.feasible_configs([], video, None)
    wanted = {
        (20, "low"), (30, "low"), (40, "low"),
        (20, "high"), (30, "high"), (40, "high"),
    }
    if len(configs) != 6 or set(configs) != wanted:
        failures.append(f"configuration domain wrong: {configs}")

    # argmax equals exhaustive search; early stop engages whenever possible
    def random_problem():
        n_params = int(rng.integers(1, 4))
        params, utilities, weights = [], [], []
        for j in range(n_params):
            values = tuple(
                float(v) for v in sorted(rng.uniform(0, 10, size=int(rng.integers(2, 4))))
            )
            params.append(fidelity.discrete(f"p{j}", values))
            utilities.append(
                fidelity.table_utility({v: float(rng.uniform(0, 1)) for v in values})
            )
            weights.append(float(rng.uniform(0, 1)))
        dom = fidelity.FidelityDomain(tuple(params))
        suppliers = [
            fidelity.Supplier(f"s{j}", float(rng.uniform(0, 1)), dom)
            for j in range(int(rng.integers(1, 5)))
        ]
        grid = dom.grid()
        feasible = {}
        for s in suppliers:
            count = int(rng.integers(0, len(grid) + 1))
            picks = rng.choice(len(grid), size=count, replace=False)
            feasible[s.supplier_id] = [grid[int(x)] for x in sorted(picks)]
        return suppliers, utilities, weights, feasible

    early_stops = 0
    for i in range(1000):
        suppliers, utilities, weights, feasible = random_problem()
        oracle = exhaustive_max_utility(suppliers, utilities, weights, feasible)
        if oracle is None:
            continue
        result = fidelity.maximize_utility(suppliers, utilities, weights, feasible)
        if result.utility != oracle[0]:
            failures.append(f"instance {i}: utility {result.utility} vs {oracle[0]}")
            break
        f_s = next(s.f_s for s in suppliers if s.supplier_id == result.supplier_id)
        if fidelity.config_utility(result.config, utilities, weights, f_s) != result.utility:
            failures.append(f"instance {i}: returned pair does not achieve the max")
            break
        ordered = sorted(suppliers, key=lambda s: (-s.f_s, s.supplier_id))
        visited = set(result.evaluated_suppliers)
        running = None
        for s in ordered:
            stoppable = running is not None and s.f_s < running
            if stoppable and s.supplier_id in visited:
                failures.append(f"instance {i}: early stop missed at {s.supplier_id}")
                break
            if not stoppable and s.supplier_id not in visited:
                failures.append(f"instance {i}: skipped a supplier that could win")
                break
            for cfg in feasible.get(s.supplier_id, ()):
                u = fidelity.config_utility(cfg, utilities, weights, s.f_s)
                if running is None or u > running:
                    running = u
        if len(visited) < len(suppliers):
            early_stops += 1
        if failures:
            break
    if early_stops == 0:
        failures.append("early termination never engaged across 1000 instances")
    report(8, "consumption learning and utility-maximal selection",
           failures, time.perf_counter() - t0, 10.0)


def _system_doc(seed: int, enabled: bool) -> dict:
    return {
        "seed": seed,
        "duration_slots": 400,
        "objects": {"count": 100, "mtbu": 150.0, "stdv_mtbu": 30.0},
        "clients": {"count": 50, "cache_capacity": 12, "policy": "lru",
                    "default_qos": 0.3, "request_rate": 0.05},
        "adjacency": {"kind": "ring", "degree": 4},
        "resolution_mode": "p2p",
        "toggles": {"p2p": enabled, "caching": enabled},
        "workload": {"zipf_theta": 0.8},
    }


def test_criterion_9_caching_lowers_source_load_without_qos_violations():
    t0 = time.perf_counter()
    failures = []
    for seed in range(20):
        on = run(scenario_from_dict(_system_doc(seed, True)))
        off = run(scenario_from_dict(_system_doc(seed, False)))
        load_on = on.summary()["source_load"]
        load_off = off.summary()["source_load"]
        if not load_on < load_off:
            failures.append(f"seed {seed}: {load_on} not below {load_off}")
        for metrics in (on, off):
            for r in metrics.records:
                if r.resolution in ("local_cache", "neighbor_cache") and r.p_nm < r.qos:
                    failures.append(f"seed {seed}: QoS violation on {r.object_id}")
    report(9, "caching plus peer resolution relieves the source, zero QoS violations",
           failures, time.perf_counter() - t0, 60.0)


def test_criterion_10_byte_identical_reruns():
    t0 = time.perf_counter()
    failures = []
    p2p_doc = _system_doc(3, True)
    broadcast_doc = {
        "seed": 3,
        "duration_slots": 400,
        "objects": {"count": 24, "mtbu": 150.0, "stdv_mtbu": 30.0},
        "clients": {"count": 12, "cache_capacity": 8, "policy": "lru",
                    "default_qos": 0.3, "request_rate": 0.08},
        "adjacency": {"kind": "ring", "degree": 2},
        "resolution_mode": "broadcast",
        "workload": {"zipf_theta": 0.8},
        "cell": {"channels": 3, "scheme": "one_m", "m": 2,
                 "total_bandwidth": 10.0, "request_size": 0.25,
                 "threshold": 0.6, "batching_window": 4.0},
    }
    for name, doc in (("p2p", p2p_doc), ("broadcast", broadcast_doc)):
        first = run(scenario_from_dict(doc))
        second = run(scenario_from_dict(doc))
        if first.to_json_bytes() != second.to_json_bytes():
            failures.append(f"{name}: JSON metrics differ between reruns")
        if first.to_csv_bytes() != second.to_csv_bytes():
            failures.append(f"{name}: CSV metrics differ between reruns")
    report(10, "identical seeds give byte-identical metrics",
           failures, time.perf_counter() - t0, 60.0)
