import dataclasses
import hashlib
import importlib.util
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aircell import fidelity, p2p, sim
from aircell.freshness import InvariantError
from aircell.sim import (
    ScenarioError,
    generate_workload,
    run,
    scenario_from_dict,
    substream,
    zipf_pmf,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def benchmark_workloads():
    """``perfbench/workloads.py``, loaded by path under its own module name."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


def p2p_doc(seed=1, **over):
    doc = {
        "seed": seed,
        "duration_slots": 400,
        "objects": {"count": 10, "mtbu": 120.0, "stdv_mtbu": 25.0},
        "clients": {"count": 6, "cache_capacity": 6, "policy": "lru",
                    "default_qos": 0.3, "request_rate": 0.08},
        "adjacency": {"kind": "ring", "degree": 2},
        "resolution_mode": "p2p",
        "toggles": {"p2p": True, "caching": True, "overhearing": False},
        "workload": {"zipf_theta": 0.8},
    }
    doc.update(over)
    return doc


def broadcast_doc(seed=1, **over):
    doc = p2p_doc(seed)
    doc["resolution_mode"] = "broadcast"
    doc["cell"] = {
        "channels": 2, "scheme": "one_m", "m": 2,
        "total_bandwidth": 10.0, "request_size": 0.25,
        "threshold": 0.2, "batching_window": 4.0,
    }
    doc.update(over)
    return doc


def violations(doc) -> list[str]:
    """The violations ``scenario_from_dict`` raises for ``doc``."""
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    return err.value.violations


def system_doc(seed=3):
    """The p2p document of acceptance criterion 10."""
    return {
        "seed": seed,
        "duration_slots": 400,
        "objects": {"count": 100, "mtbu": 150.0, "stdv_mtbu": 30.0},
        "clients": {"count": 50, "cache_capacity": 12, "policy": "lru",
                    "default_qos": 0.3, "request_rate": 0.05},
        "adjacency": {"kind": "ring", "degree": 4},
        "resolution_mode": "p2p",
        "toggles": {"p2p": True, "caching": True},
        "workload": {"zipf_theta": 0.8},
    }


def system_broadcast_doc(seed=3):
    """The broadcast document of acceptance criterion 10."""
    return {
        "seed": seed,
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


def mixed_doc(seed=5):
    """Every cache policy, idle clients, sparse ticks, overhearing, a dead source."""
    policies = ["lru", "acqf", "cqf", "ttl_drop", "ttl_requery"]
    objects = [
        {"object_id": f"o{i:02d}", "mtbu": 20.0 + 13.5 * i,
         "stdv_mtbu": 0.25 * (20.0 + 13.5 * i)}
        for i in range(15)
    ]
    objects.append({"object_id": "down", "mtbu": 60.0, "stdv_mtbu": 12.0,
                    "reachable": False})
    clients = [
        {"client_id": f"c{i:02d}", "cache_capacity": 3, "policy": policies[i % 5],
         "default_qos": 0.25, "request_rate": 0.15}
        for i in range(10)
    ]
    clients[1]["qos"] = {"o00": 0.6}
    clients[2]["providers"] = ["o03"]
    clients += [
        {"client_id": f"idle{i}", "policy": policies[i % 5], "cache_capacity": 2}
        for i in range(5)
    ]
    return {
        "seed": seed,
        "duration_slots": 900,
        "objects": objects,
        "clients": clients,
        "adjacency": {"kind": "ring", "degree": 2},
        "resolution_mode": "p2p",
        "toggles": {"p2p": True, "caching": True, "overhearing": True},
        "workload": {"zipf_theta": 0.5},
        "cache": {"default_ttl": 12.0, "tick_interval": 5, "read_window": 8},
    }


def dedicated_index_doc(seed=4):
    """A dedicated index channel on 4 channels, two-slot switches, a replan
    every 50 slots, and batches still open when the run ends."""
    doc = broadcast_doc(seed, duration_slots=603)
    doc["objects"] = {"count": 30, "mtbu": 90.0, "stdv_mtbu": 20.0}
    doc["clients"] = {"count": 8, "cache_capacity": 4, "policy": "lru",
                      "default_qos": 0.3, "request_rate": 0.12}
    doc["cell"] = {
        "channels": 4, "scheme": "one_m", "m": 2, "dedicated_index_channel": True,
        "total_bandwidth": 10.0, "request_size": 0.25, "threshold": 0.5,
        "batching_window": 7.0, "replan_interval": 50,
        "cost_model": {"switch_slots": 2, "e_active": 1.0, "e_doze": 0.1,
                       "e_switch": 0.7},
    }
    return doc


def distributed_ttl_doc(seed=6):
    """The distributed index, with caching on and TTL-requery clients, which
    a broadcast cell never consults."""
    doc = broadcast_doc(seed, duration_slots=500)
    doc["clients"] = {"count": 6, "cache_capacity": 4, "policy": "ttl_requery",
                      "default_qos": 0.3, "request_rate": 0.1}
    doc["toggles"] = {"p2p": True, "caching": True, "overhearing": True}
    doc["cache"] = {"default_ttl": 10.0, "tick_interval": 1}
    doc["cell"].update(scheme="distributed", channels=3)
    return doc


class TestSubstreams:
    def test_named_streams_are_stable_and_distinct(self):
        a = substream(9, "workload", "client1").integers(0, 1 << 30, 5)
        b = substream(9, "workload", "client1").integers(0, 1 << 30, 5)
        c = substream(9, "workload", "client2").integers(0, 1 << 30, 5)
        assert list(a) == list(b)
        assert list(a) != list(c)


class TestWorkload:
    def test_zero_rate_gives_empty_stream(self):
        scn = scenario_from_dict(p2p_doc(clients={
            "count": 3, "request_rate": 0.0, "policy": "lru",
        }))
        wl = generate_workload(scn)
        assert wl.total_requests() == 0

    def test_same_seed_identical_streams(self):
        scn = scenario_from_dict(p2p_doc(seed=42))
        assert generate_workload(scn).per_client == generate_workload(scn).per_client

    def test_different_seeds_differ(self):
        a = generate_workload(scenario_from_dict(p2p_doc(seed=1)))
        b = generate_workload(scenario_from_dict(p2p_doc(seed=2)))
        assert a.per_client != b.per_client

    def test_times_within_duration(self):
        scn = scenario_from_dict(p2p_doc(seed=5))
        wl = generate_workload(scn)
        for stream in wl.per_client.values():
            assert all(0 <= t < scn.duration_slots for t, _ in stream)

    def test_theta_zero_is_uniform_by_chi_square(self):
        n_objects = 20
        scn = scenario_from_dict(p2p_doc(
            seed=3,
            duration_slots=20_000,
            objects={"count": n_objects, "mtbu": 120.0, "stdv_mtbu": 25.0},
            clients={"count": 4, "request_rate": 0.5, "policy": "lru"},
            workload={"zipf_theta": 0.0},
        ))
        wl = generate_workload(scn)
        counts = {}
        for stream in wl.per_client.values():
            for _, oid in stream:
                counts[oid] = counts.get(oid, 0) + 1
        total = sum(counts.values())
        expected = total / n_objects
        stat = sum((counts.get(f"obj{i:02d}", 0) - expected) ** 2 / expected
                   for i in range(n_objects))
        df = n_objects - 1
        assert stat <= df + 3 * math.sqrt(2 * df)

    def test_zipf_pmf_shape(self):
        pmf = zipf_pmf(5, 1.0)
        assert pmf.sum() == pytest.approx(1.0)
        assert all(a > b for a, b in zip(pmf, pmf[1:]))
        flat = zipf_pmf(5, 0.0)
        assert np.allclose(flat, 0.2)


class TestDeterminism:
    @pytest.mark.parametrize("doc_fn", [p2p_doc, broadcast_doc])
    def test_identical_seed_identical_bytes(self, doc_fn):
        a = run(scenario_from_dict(doc_fn(seed=7)))
        b = run(scenario_from_dict(doc_fn(seed=7)))
        assert a.to_json_bytes() == b.to_json_bytes()
        assert a.to_csv_bytes() == b.to_csv_bytes()

    def test_different_seeds_differ(self):
        a = run(scenario_from_dict(p2p_doc(seed=7)))
        b = run(scenario_from_dict(p2p_doc(seed=8)))
        assert a.to_json_bytes() != b.to_json_bytes()

    # SHA-256 of to_json_bytes(): a change that alters the bytes the same way
    # on every rerun passes the rerun tests above but fails here.
    GOLDEN = {
        "system_p2p": (system_doc,
                       "c6253ab656c438e27727831e72078e540e2d8b0b6b3cebc50c240c4fbc07b848"),
        "system_broadcast": (system_broadcast_doc,
                             "48a78becbb832c0050ac83d13fc6b8230836ba090b74796f7f0519e3cfe65650"),
        "mixed": (mixed_doc,
                  "ddbb031bf96c887238936e374e3521148ba744b3ef58641ed8b48f3653b59fd5"),
        "broadcast_dedicated_index": (
            dedicated_index_doc,
            "1d7b08ec109afe7694ee391c7efc5e2520665251bd4965d348752c49735b8f61"),
        "broadcast_distributed_ttl": (
            distributed_ttl_doc,
            "63254465e23a33520a754553c8bb57607d8b811d021ec148322159aa3240a376"),
    }

    # SHA-256 of to_csv_bytes() for the same documents
    GOLDEN_CSV = {
        "system_p2p": "b7411a7f5b51b20035854d2fc4c9f519c5f5063531bfc303f260702fa7389e41",
        "system_broadcast":
            "9d68c295b6c4df09775beff60ffcc3c71822532a462be7ff1dc9f4795b1d3b5e",
        "mixed": "6233c424ee059dcfc835f36d5c37687070a61d76f03916f2920f8b4b81eca3b1",
        "broadcast_dedicated_index":
            "59f6d92d11003107be7c81a549256acaddc41cb520f4e477b52c5a0dfa99ef53",
        "broadcast_distributed_ttl":
            "864d16bb8902f82736193797413f82fc3e8caa9e8d6f9473dbbdba0edc54dd93",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_digest(self, name):
        doc_fn, expected = self.GOLDEN[name]
        metrics = run(scenario_from_dict(doc_fn()))
        assert hashlib.sha256(metrics.to_json_bytes()).hexdigest() == expected
        csv_digest = hashlib.sha256(metrics.to_csv_bytes()).hexdigest()
        assert csv_digest == self.GOLDEN_CSV[name]

    @pytest.mark.parametrize("name", ["p2p_lru", "p2p_qf_churn", "broadcast_replan"])
    def test_benchmark_pins(self, name):
        # the benchmark's own documents and pins, read without importing its
        # harness: its correctness gate becomes a unit test
        pins = json.loads((PERFBENCH / "digests.json").read_text())
        doc = benchmark_workloads().SCENARIOS[name](pins["default_seed"])
        metrics = run(scenario_from_dict(doc))
        assert hashlib.sha256(metrics.to_json_bytes()).hexdigest() == pins["sha256"][name]

    def test_mixed_document_exercises_every_path(self):
        metrics = run(scenario_from_dict(mixed_doc()))
        c = metrics.counters
        assert c["unresolved"] > 0 and c["requeries"] > 0 and c["ttl_drops"] > 0
        kinds = {r.resolution for r in metrics.records}
        assert {"local_cache", "neighbor_cache", "local_provider", "source"} <= kinds

    def test_zero_duration_is_empty(self):
        metrics = run(scenario_from_dict(p2p_doc(duration_slots=0)))
        assert metrics.records == []
        assert metrics.counters["issued"] == 0


class TestConservationAndCausality:
    def test_every_query_is_recorded_once(self):
        metrics = run(scenario_from_dict(p2p_doc(seed=11)))
        c = metrics.counters
        assert c["answered"] + c["unresolved"] == c["issued"]
        assert len(metrics.records) == c["issued"]
        assert [r.query_id for r in metrics.records] == list(range(int(c["issued"])))

    def test_staleness_and_age_nonnegative(self):
        metrics = run(scenario_from_dict(p2p_doc(seed=13)))
        assert all(r.staleness_slots >= 0 for r in metrics.records)
        assert all(r.latency_slots >= 0 for r in metrics.records)

    def test_served_cache_entries_meet_qos(self):
        metrics = run(scenario_from_dict(p2p_doc(seed=17, duration_slots=600)))
        cached = [r for r in metrics.records
                  if r.resolution in ("local_cache", "neighbor_cache")]
        assert cached, "scenario should produce cache hits"
        assert all(r.qos_met for r in cached)
        assert all(r.p_nm >= r.qos for r in cached)


class TestCachingEffect:
    def test_caching_strictly_lowers_source_load(self):
        for seed in range(5):
            on = run(scenario_from_dict(p2p_doc(seed=seed)))
            off_doc = p2p_doc(seed=seed,
                              toggles={"p2p": False, "caching": False})
            off = run(scenario_from_dict(off_doc))
            assert on.summary()["source_load"] < off.summary()["source_load"]
            assert off.summary()["source_load"] == off.summary()["issued"]

    def test_overhearing_spreads_copies(self):
        plain = run(scenario_from_dict(p2p_doc(seed=23)))
        loud_doc = p2p_doc(seed=23, toggles={
            "p2p": True, "caching": True, "overhearing": True,
        })
        loud = run(scenario_from_dict(loud_doc))
        assert loud.summary()["source_load"] <= plain.summary()["source_load"]

    def test_staleness_monotone_in_qos_across_seeds(self):
        lo, hi = [], []
        for seed in range(20):
            lo_doc = p2p_doc(seed=seed, clients={
                "count": 6, "cache_capacity": 6, "policy": "lru",
                "default_qos": 0.1, "request_rate": 0.08,
            })
            hi_doc = p2p_doc(seed=seed, clients={
                "count": 6, "cache_capacity": 6, "policy": "lru",
                "default_qos": 0.7, "request_rate": 0.08,
            })
            lo.append(run(scenario_from_dict(lo_doc)).summary()["mean_staleness_slots"])
            hi.append(run(scenario_from_dict(hi_doc)).summary()["mean_staleness_slots"])
        assert statistics.fmean(hi) <= statistics.fmean(lo)

    def test_ttl_requery_refreshes_from_source(self):
        doc = p2p_doc(seed=29, clients={
            "count": 4, "cache_capacity": 6, "policy": "ttl_requery",
            "default_qos": 0.0, "request_rate": 0.05,
        })
        doc["cache"] = {"default_ttl": 40.0, "tick_interval": 5}
        metrics = run(scenario_from_dict(doc))
        assert metrics.counters["requeries"] > 0

    def test_ttl_drop_removes_entries(self):
        doc = p2p_doc(seed=31, clients={
            "count": 4, "cache_capacity": 6, "policy": "ttl_drop",
            "default_qos": 0.0, "request_rate": 0.05,
        })
        doc["cache"] = {"default_ttl": 40.0, "tick_interval": 5}
        metrics = run(scenario_from_dict(doc))
        assert metrics.counters["ttl_drops"] > 0


class TestBroadcastMode:
    def test_partition_summary_present(self):
        metrics = run(scenario_from_dict(broadcast_doc(seed=3)))
        assert metrics.plan is not None
        assert metrics.plan["feasible"]
        assert 0 < metrics.plan["published_count"] <= 10

    def test_transmitted_slots_independent_of_client_count(self):
        # publish everything so the program is identical either way
        small_doc = broadcast_doc(seed=5)
        del small_doc["cell"]["threshold"]
        big_doc = broadcast_doc(seed=5, clients={
            "count": 18, "cache_capacity": 6, "policy": "lru",
            "default_qos": 0.3, "request_rate": 0.08,
        })
        del big_doc["cell"]["threshold"]
        small = run(scenario_from_dict(small_doc))
        big = run(scenario_from_dict(big_doc))
        assert small.plan["published"] == big.plan["published"]
        assert small.counters["broadcast_slots"] == big.counters["broadcast_slots"]
        assert small.counters["broadcast_slots"] > 0
        assert big.counters["issued"] > small.counters["issued"]

    def test_batching_conservation_against_zero_window(self):
        with_window = run(scenario_from_dict(broadcast_doc(seed=7)))
        no_window_doc = broadcast_doc(seed=7)
        no_window_doc["cell"]["batching_window"] = 0.0
        no_window = run(scenario_from_dict(no_window_doc))
        lhs = (with_window.counters["on_demand_responses"]
               + with_window.counters["batching_saved"])
        assert lhs == no_window.counters["on_demand_responses"]
        assert no_window.counters["batching_saved"] == 0

    def test_broadcast_answers_are_fresh(self):
        metrics = run(scenario_from_dict(broadcast_doc(seed=9)))
        aired = [r for r in metrics.records if r.resolution == "broadcast"]
        assert aired
        assert all(r.staleness_slots == 0.0 for r in aired)
        assert all(r.p_nm == 1.0 for r in aired)

    def test_energy_accrues_to_broadcast_listeners(self):
        metrics = run(scenario_from_dict(broadcast_doc(seed=11)))
        assert sum(metrics.per_client_energy.values()) > 0

    @pytest.mark.parametrize("doc_fn", [dedicated_index_doc, distributed_ttl_doc])
    def test_builds_no_update_processes_caches_or_p2p(self, monkeypatch, doc_fn):
        def refuse(*args, **kwargs):
            raise AssertionError("constructed during a broadcast run")

        for name in ("_UpdateProcess", "P2PCell", "InformationManager", "ClientCache"):
            monkeypatch.setattr(sim, name, refuse)
        metrics = run(scenario_from_dict(doc_fn()))
        assert metrics.counters["index_reads"] > 0
        assert metrics.counters["on_demand_responses"] > 0

    def test_replan_hook_runs_deterministically(self):
        doc = broadcast_doc(seed=13)
        doc["cell"]["replan_interval"] = 100
        a = run(scenario_from_dict(doc))
        b = run(scenario_from_dict(doc))
        assert a.to_json_bytes() == b.to_json_bytes()


class TestUnreachableSource:
    def test_unresolved_recorded_not_fatal(self):
        doc = p2p_doc(seed=37)
        doc["objects"] = [
            {"object_id": "ok", "mtbu": 120.0, "stdv_mtbu": 25.0},
            {"object_id": "down", "mtbu": 120.0, "stdv_mtbu": 25.0,
             "reachable": False},
        ]
        doc["clients"] = {"count": 4, "cache_capacity": 4, "policy": "lru",
                          "default_qos": 1.0, "request_rate": 0.1}
        metrics = run(scenario_from_dict(doc))
        assert metrics.counters["unresolved"] > 0
        assert (metrics.counters["answered"] + metrics.counters["unresolved"]
                == metrics.counters["issued"])


class TestFidelitySelection:
    FIDELITY = {
        "parameters": [
            {"name": "frame_rate", "kind": "discrete", "values": [20, 30, 40]},
            {"name": "resolution", "kind": "discrete", "values": ["high", "low"]},
        ],
        "utilities": {
            "frame_rate": {"table": {"20": 0.3, "30": 0.7, "40": 1.0}},
            "resolution": {"table": {"high": 1.0, "low": 0.4}},
        },
        "weights": {"frame_rate": 1.0, "resolution": 0.5},
        "suppliers": [
            {"supplier_id": "near", "f_s": 0.9},
            {"supplier_id": "far", "f_s": 0.4},
        ],
        "models": [
            {"resource_id": "bandwidth", "coefficients": [0.2, 0.0], "intercept": 1.0},
        ],
        "limits": {"bandwidth": 8.0},
    }

    def test_selection_recorded(self):
        doc = p2p_doc(seed=41, fidelity=self.FIDELITY)
        metrics = run(scenario_from_dict(doc))
        sel = metrics.fidelity_selection
        assert sel["supplier_id"] == "near"
        # bandwidth limit 8 allows frame rates up to (8 - 1) / 0.2 = 35
        assert sel["config"] == [30, "high"]
        assert sel["utility"] == pytest.approx(0.9 * 0.7 * 1.0 ** 0.5)
        assert sel["evaluated_suppliers"] == ["near"]

    def test_no_feasible_configuration_recorded(self):
        # it used to escape run as fidelity.NoConfiguration
        section = {**self.FIDELITY, "limits": {"bandwidth": 0.5}}
        metrics = run(scenario_from_dict(p2p_doc(seed=41, fidelity=section)))
        empty = {"supplier_id": None, "config": None, "utility": None,
                 "evaluated_suppliers": ["near", "far"]}
        assert metrics.fidelity_selection == empty
        assert json.loads(metrics.to_json_bytes())["fidelity_selection"] == empty
        counters = metrics.counters
        assert counters["answered"] + counters["unresolved"] == counters["issued"] > 0


class TestFidelitySection:
    """The fidelity section is read when the scenario is, not inside ``run``."""

    @staticmethod
    def violations(**changes) -> list[str]:
        section = {**TestFidelitySelection.FIDELITY, **changes}
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(p2p_doc(fidelity=section))
        return err.value.violations

    def test_empty_section(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(p2p_doc(fidelity={}))
        assert err.value.violations == [
            f"fidelity: missing key {key!r}"
            for key in ("parameters", "utilities", "weights", "suppliers")
        ]

    def test_unknown_kind(self):
        params = [{"name": "frame_rate", "kind": "stepped", "values": [20, 30]}]
        assert self.violations(parameters=params) == [
            "fidelity.parameters[0].kind: must be 'discrete' or 'continuous', got 'stepped'"
        ]

    def test_duplicate_supplier_ids(self):
        # the selection used to list the one id twice
        suppliers = [{"supplier_id": "a", "f_s": 0.5}, {"supplier_id": "a", "f_s": 0.7}]
        assert self.violations(suppliers=suppliers) == [
            "fidelity.suppliers: duplicate supplier ids"
        ]

    def test_missing_parameter_key(self):
        params = [{"name": "frame_rate", "kind": "continuous", "lo": 20.0}]
        assert self.violations(parameters=params) == [
            "fidelity.parameters[0]: missing key 'hi'"
        ]

    @pytest.mark.parametrize("coefficients", [[0.2], [0.2, 0.0, 1.0], [0.2, "x"]])
    def test_coefficient_count_must_match_parameters(self, coefficients):
        models = [{"resource_id": "bandwidth", "coefficients": coefficients,
                   "intercept": 1.0}]
        assert self.violations(models=models) == [
            "fidelity.models: 'bandwidth' needs a finite coefficient for each of "
            "the 2 parameters and a finite intercept"
        ]

    def test_missing_utility(self):
        assert self.violations(utilities={"frame_rate": {"sigmoid": [20, 40]}}) == [
            "fidelity.utilities: missing key 'resolution'"
        ]

    def test_sigmoid_on_categorical_values(self):
        utilities = {**TestFidelitySelection.FIDELITY["utilities"],
                     "resolution": {"sigmoid": [0, 1]}}
        assert self.violations(utilities=utilities) == [
            "fidelity.utilities.resolution.sigmoid: resolution has values that are not numbers"
        ]

    def test_listed_with_the_other_violations(self):
        doc = p2p_doc(fidelity={**TestFidelitySelection.FIDELITY, "weights": 3},
                      toggles=[])
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.violations == [
            "toggles: must be a mapping, got list",
            "fidelity.weights: must be a mapping, got int",
        ]

    def test_grid_filtered_once_per_selection(self, monkeypatch):
        calls = []
        feasible_configs = fidelity.feasible_configs

        def counted(*args):
            calls.append(args)
            return feasible_configs(*args)

        monkeypatch.setattr(fidelity, "feasible_configs", counted)
        run(scenario_from_dict(p2p_doc(seed=41, fidelity=TestFidelitySelection.FIDELITY)))
        assert len(calls) == 1

    def test_supplier_and_model_entries(self):
        section = {
            **TestFidelitySelection.FIDELITY,
            "suppliers": [{"supplier_id": "near", "f_s": 2}, {"f_s": 0.5, "note": 1}],
            "models": [{"resource_id": "bandwidth", "coefficients": [0.2, 0.0],
                        "intercept": math.nan}],
        }
        assert violations(p2p_doc(fidelity=section)) == [
            "fidelity.suppliers[0].f_s: must be in [0, 1]",
            "fidelity.suppliers[1]: unknown key 'note'",
            "fidelity.suppliers[1]: missing key 'supplier_id'",
            "fidelity.models[0]: intercept must be finite, got nan",
        ]

    def test_read_once(self, monkeypatch):
        scn = scenario_from_dict(p2p_doc(seed=41, fidelity=TestFidelitySelection.FIDELITY))
        assert isinstance(scn.fidelity, sim.FidelitySection)
        assert scn.fidelity.limits == {"bandwidth": 8.0}
        assert [s.supplier_id for s in scn.fidelity.suppliers] == ["near", "far"]

        def read_again(*args):
            raise AssertionError("the fidelity section was read again")

        monkeypatch.setattr(sim, "_read_fidelity", read_again)
        assert run(scn).fidelity_selection["config"] == [30, "high"]


def continuous_rate(**entry) -> dict:
    """The selection's section with frame_rate made continuous, with a
    sigmoid utility, and the parameter entry's fields set to ``entry``."""
    section = json.loads(json.dumps(TestFidelitySelection.FIDELITY))
    section["parameters"][0] = {"name": "frame_rate", "kind": "continuous", "lo": 20,
                                "hi": 40, **entry}
    section["utilities"]["frame_rate"] = {"sigmoid": [25, 35]}
    return section


def changed(path: str, value) -> dict:
    """The selection's section with the value at ``path`` (keys and list
    indices joined by dots) replaced by ``value``."""
    section = json.loads(json.dumps(TestFidelitySelection.FIDELITY))
    *parents, last = path.split(".")
    node = section
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value
    return section


class TestFidelityRows:
    """Each fidelity input is read by the table; every violation starts
    with its field's path. Each of these documents was accepted before, or
    reported with Python's exception text in place of a path."""

    @pytest.mark.parametrize("section, expected", [
        pytest.param(changed("parameters.0.values", "234"), [
            "fidelity.parameters[0].values: must be a list, got '234'",
        ], id="string values"),
        pytest.param(changed("parameters.0.values", [20, 30, 20]), [
            "fidelity.parameters[0].values: must be distinct strings or finite numbers",
        ], id="duplicate values"),
        pytest.param(changed("parameters.0.values", {"20": 20}), [
            "fidelity.parameters[0].values: must be a list, got {'20': 20}",
        ], id="mapping values"),
        pytest.param(changed("parameters.1.unit", "px"), [
            "fidelity.parameters[1]: unknown key 'unit'",
        ], id="unknown parameter key"),
        pytest.param(changed("utilities.codec", {"table": {"h264": 1.0}}), [
            "fidelity.utilities: unknown key 'codec'",
        ], id="unknown utility"),
        pytest.param(changed("weights.codec", 0.5), [
            "fidelity.weights: unknown key 'codec'",
        ], id="unknown weight"),
        pytest.param(
            {**continuous_rate(), "continuous_points": 10**6, "parameters": [
                {"name": "frame_rate", "kind": "continuous", "lo": 20, "hi": 40},
                {"name": "resolution", "kind": "continuous", "lo": 0, "hi": 1},
            ], "utilities": {"frame_rate": {"sigmoid": [25, 35]},
                             "resolution": {"sigmoid": [0.2, 0.8]}}},
            ["fidelity: 1000000000000 configurations in the grid, more than 1000000"],
            id="grid of 10**12"),
        pytest.param(changed("weights", 3), [
            "fidelity.weights: must be a mapping, got int",
        ], id="weights a number"),
        pytest.param(changed("utilities.frame_rate", 0.5), [
            "fidelity.utilities.frame_rate: must be a mapping, got float",
        ], id="utility a number"),
        pytest.param(changed("utilities.frame_rate.table.30", "high"), [
            "fidelity.utilities.frame_rate.table.30: must be a number, got 'high'",
        ], id="non-numeric table value"),
        pytest.param(continuous_rate(lo="20"), [
            "fidelity.parameters[0].lo: must be a number, got '20'",
        ], id="string lo"),
        pytest.param(changed("utilities.frame_rate", {"sigmoid": [25, "35"]}), [
            "fidelity.utilities.frame_rate.sigmoid: must be two finite numbers, low first",
        ], id="non-numeric sigmoid knee"),
    ])
    def test_violation_paths(self, section, expected):
        assert violations(p2p_doc(fidelity=section)) == expected

    @pytest.mark.parametrize("section, expected", [
        (continuous_rate(lo=40), ["fidelity.parameters[0]: lo must be below hi"]),
        (changed("parameters.0", {"name": "frame_rate", "kind": "discrete"}),
         ["fidelity.parameters[0]: missing key 'values'"]),
        (changed("parameters.0", {"name": "frame_rate", "kind": "continuous"}),
         ["fidelity.parameters[0]: missing key 'lo'",
          "fidelity.parameters[0]: missing key 'hi'"]),
        (changed("parameters.0.values", [20, True]),
         ["fidelity.parameters[0].values: must be distinct strings or finite numbers"]),
        (changed("parameters.1.name", "frame_rate"),
         ["fidelity.parameters: duplicate parameter names"]),
        (changed("utilities.frame_rate", {"table": {"20": 1.0}, "sigmoid": [25, 35]}),
         ["fidelity.utilities.frame_rate: give one of table and sigmoid"]),
        (changed("utilities.frame_rate", {}),
         ["fidelity.utilities.frame_rate: give one of table and sigmoid"]),
        (changed("utilities.frame_rate.table", {"20": 0.3, "40": 1.0}),
         ["fidelity.utilities.frame_rate.table: missing key '30'"]),
        (changed("utilities.frame_rate.table.40", 1.5),
         ["fidelity.utilities.frame_rate.table.40: must be in [0, 1]"]),
        (changed("utilities.frame_rate", {"sigmoid": [35, 25]}),
         ["fidelity.utilities.frame_rate.sigmoid: must be two finite numbers, low first"]),
        ({**continuous_rate(), "utilities": {
            "frame_rate": {"table": {"20": 1.0}},
            "resolution": TestFidelitySelection.FIDELITY["utilities"]["resolution"]}},
         ["fidelity.utilities.frame_rate.table: frame_rate is continuous, so it needs a "
          "sigmoid"]),
        (changed("weights", {"frame_rate": 1.0}), ["fidelity.weights: missing key 'resolution'"]),
        (changed("weights.resolution", -0.5), ["fidelity.weights.resolution: must be in [0, 1]"]),
    ], ids=[
        "lo not below hi", "discrete without values", "continuous without bounds",
        "boolean value", "duplicate names", "table and sigmoid", "neither table nor sigmoid",
        "table misses a value", "table value out of range", "knees reversed",
        "table on a continuous parameter", "weight missing", "weight out of range",
    ])
    def test_checks_that_span_fields(self, section, expected):
        assert violations(p2p_doc(fidelity=section)) == expected

    def test_a_malformed_parameter_list_ends_the_reading(self):
        # the utilities, weights and models no longer match it, unreported
        section = {**changed("parameters.0.values", "234"), "weights": 3}
        assert violations(p2p_doc(fidelity=section)) == [
            "fidelity.parameters[0].values: must be a list, got '234'",
        ]

    def test_grid_bound_is_inclusive(self):
        # 1000 values times 1000 points: read, not built
        values = list(range(1000))
        section = {**continuous_rate(), "continuous_points": 1000, "parameters": [
            {"name": "frame_rate", "kind": "continuous", "lo": 20, "hi": 40},
            {"name": "resolution", "kind": "discrete", "values": values},
        ]}
        section["utilities"]["resolution"] = {"table": {str(v): 0.5 for v in values}}
        assert scenario_from_dict(p2p_doc(fidelity=section)).fidelity is not None
        values.append(1000)
        section["utilities"]["resolution"]["table"]["1000"] = 0.5
        assert violations(p2p_doc(fidelity=section)) == [
            "fidelity: 1001000 configurations in the grid, more than 1000000"
        ]

    def test_continuous_parameter_with_a_sigmoid_selects(self):
        metrics = run(scenario_from_dict(p2p_doc(seed=41, fidelity={
            **continuous_rate(), "continuous_points": 5})))
        # frame rates 20, 25, 30, 35, 40; the limit allows up to 35
        assert metrics.fidelity_selection["config"] == [35.0, "high"]

    def test_one_reader_for_the_parameter_list(self, monkeypatch, tmp_path, capsys):
        from aircell import cli

        calls = []
        read_parameters = sim.read_parameters

        def counted(spec, where, errs):
            calls.append(where)
            return read_parameters(spec, where, errs)

        monkeypatch.setattr(sim, "read_parameters", counted)
        scenario_from_dict(p2p_doc(fidelity=TestFidelitySelection.FIDELITY))
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"domain": [], "samples": [
            {"config": {}, "consumption": {"cpu": 2.0}}]}))
        assert cli.main(["fit", "--samples", str(path)]) == 0
        assert calls == ["fidelity.parameters", "domain"]
        # with no parameters, the model is the mean
        assert json.loads(capsys.readouterr().out)["models"] == [
            {"resource_id": "cpu", "coefficients": [], "intercept": 2.0}]
        assert not hasattr(fidelity, "read_domain")


class TestScenarioValidation:
    def test_all_violations_collected(self):
        doc = p2p_doc()
        doc["bogus_key"] = 1
        doc["duration_slots"] = -5
        doc["clients"] = [{"client_id": "a", "policy": "nope", "default_qos": 3.0}]
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        text = str(err.value)
        assert "bogus_key" in text
        assert "duration_slots" in text
        assert "policy" in text

    def test_dangling_ids_reported(self):
        doc = p2p_doc()
        doc["clients"] = [
            {"client_id": "a", "qos": {"ghost": 0.5}},
            {"client_id": "b", "providers": ["ghost2"]},
        ]
        doc["adjacency"] = {"a": ["nobody"]}
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        text = str(err.value)
        assert "ghost" in text and "ghost2" in text and "nobody" in text


NON_FINITE = [math.nan, math.inf, -math.inf]
# every float field of a scenario document, as a path of keys
FLOAT_FIELDS = [
    ("objects", "mtbu"), ("objects", "stdv_mtbu"),
    ("clients", "default_qos"), ("clients", "request_rate"),
    ("clients.qos", "obj0"),
    ("workload", "zipf_theta"),
    ("costs", "local"), ("costs", "hop"), ("costs", "source"),
    ("cell.cost_model", "e_active"), ("cell.cost_model", "e_doze"),
    ("cell.cost_model", "e_switch"),
    ("cell", "total_bandwidth"), ("cell", "request_size"), ("cell", "threshold"),
    ("cell", "batching_window"),
    ("cache", "default_ttl"),
]
# fields where +inf reads as "no limit"
NO_LIMIT_FIELDS = [("cell", "threshold"), ("cache", "default_ttl")]


def with_field(path, value):
    """A valid broadcast document with the field at ``path`` set to ``value``."""
    doc = broadcast_doc()
    *section, key = path
    node = doc
    for name in ".".join(section).split("."):
        node = node.setdefault(name, {})
    node[key] = value
    return doc


class TestNonFiniteInputs:
    """NaN or infinite draw parameters would hang or silently skip the run."""

    @staticmethod
    def rejected(doc, field_name):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert any(field_name in v for v in err.value.violations)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_mtbu(self, value):
        self.rejected(p2p_doc(objects={"count": 3, "mtbu": value, "stdv_mtbu": 5.0}),
                      "mtbu must be finite")

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_stdv_mtbu(self, value):
        doc = p2p_doc(objects=[{"object_id": "a", "mtbu": 50.0, "stdv_mtbu": value}])
        self.rejected(doc, "stdv_mtbu must be finite")

    @pytest.mark.parametrize("bounds", [[math.nan, 200.0], [20.0, math.inf],
                                        [-math.inf, 5.0], [20.0], "ab"])
    def test_mtbu_range(self, bounds):
        self.rejected(p2p_doc(objects={"count": 3, "mtbu_range": bounds}), "mtbu_range")

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_request_rate(self, value):
        doc = p2p_doc(clients={"count": 2, "policy": "lru", "request_rate": value})
        self.rejected(doc, "request_rate must be finite")


    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("path", FLOAT_FIELDS, ids=".".join)
    def test_every_float_field(self, path, value):
        doc = with_field(path, value)
        *section, key = path
        label = f"{'.'.join(section)}: {key}"
        if path in NO_LIMIT_FIELDS:
            if value == math.inf:
                scenario_from_dict(doc)  # inf is "no limit" here
                return
            expected = f"{label} must be finite or inf, got {value!r}"
        else:
            expected = f"{label} must be finite, got {value!r}"
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.violations == [expected]

    @pytest.mark.parametrize("objects", [
        {"count": 3, "mtbu": 1e308, "stdv_mtbu": 0},  # burn-in summed to -inf
        {"count": 3, "mtbu": 1e300, "stdv_mtbu": 1e300},  # squared past float max
        {"count": 3, "mtbu": 50.0, "stdv_mtbu": 1e151},
        {"count": 3, "mtbu_range": [1e149, 1e300]},
    ])
    def test_huge_finite_mtbu_rejected_before_the_run(self, objects):
        with pytest.raises(ScenarioError, match=r"must be finite and in .*1e\+150\]"):
            scenario_from_dict(p2p_doc(objects=objects))

    @pytest.mark.parametrize("doc_fn", [p2p_doc, broadcast_doc])
    def test_largest_mtbu_runs(self, doc_fn):
        doc = doc_fn(objects={"count": 3, "mtbu": 1e150, "stdv_mtbu": 1e150})
        metrics = run(scenario_from_dict(doc))
        assert metrics.counters["answered"] == metrics.counters["issued"] > 0

    def test_nan_zipf_theta_rejected_before_the_run(self):
        # it used to parse, and the run died in numpy's sampler
        with pytest.raises(ScenarioError, match="zipf_theta must be finite"):
            scenario_from_dict(p2p_doc(workload={"zipf_theta": math.nan}))

    def test_infinite_ttl_never_expires(self):
        doc = p2p_doc(seed=31, clients={
            "count": 4, "cache_capacity": 6, "policy": "ttl_drop",
            "default_qos": 0.0, "request_rate": 0.05,
        })
        doc["cache"] = {"default_ttl": math.inf, "tick_interval": 5}
        metrics = run(scenario_from_dict(doc))
        assert metrics.counters["issued"] > 0
        assert metrics.counters["ttl_drops"] == 0


class TestTypedFields:
    """A field of the wrong type is a violation, not a raw exception."""

    @staticmethod
    def violations(doc) -> list[str]:
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        return err.value.violations

    @pytest.mark.parametrize("value", ["abc", "4", True, None, [4]])
    def test_cache_capacity_not_a_number(self, value):
        doc = p2p_doc(clients=[{"client_id": "a", "cache_capacity": value}])
        assert self.violations(doc) == [
            f"clients[0].cache_capacity: must be an integer, got {value!r}"
        ]

    def test_compact_clients_report_once(self):
        doc = p2p_doc(clients={"count": 5, "cache_capacity": "abc"})
        assert self.violations(doc) == [
            "clients.cache_capacity: must be an integer, got 'abc'"
        ]

    def test_mtbu_not_a_number(self):
        doc = p2p_doc(objects={"count": 3, "mtbu": "x"})
        assert self.violations(doc) == ["objects.mtbu: must be a number, got 'x'"]

    def test_toggles_not_a_mapping(self):
        assert self.violations(p2p_doc(toggles=[])) == [
            "toggles: must be a mapping, got list"
        ]

    def test_every_violation_listed(self):
        doc = p2p_doc(
            objects={"count": 3, "mtbu": "x"},
            clients={"count": 2, "cache_capacity": "abc"},
            toggles=[],
            cache={"read_window": 1.5e400},
        )
        assert self.violations(doc) == [
            "objects.mtbu: must be a number, got 'x'",
            "clients.cache_capacity: must be an integer, got 'abc'",
            "toggles: must be a mapping, got list",
            "cache.read_window: must be an integer, got inf",
        ]

    @pytest.mark.parametrize("value", ["no", 1, 0, None, [True]])
    @pytest.mark.parametrize("path", [
        ("objects[0]", "reachable"),
        ("toggles", "caching"), ("toggles", "p2p"), ("toggles", "overhearing"),
        ("cell", "dedicated_index_channel"),
    ], ids=".".join)
    def test_boolean_fields(self, path, value):
        where, key = path
        if where == "objects[0]":
            doc = broadcast_doc(objects=[
                {"object_id": "a", "mtbu": 50.0, "stdv_mtbu": 5.0, key: value},
            ])
        else:
            doc = with_field(path, value)
        assert self.violations(doc) == [f"{where}.{key}: must be a boolean, got {value!r}"]

    def test_boolean_violations_listed_with_the_others(self):
        doc = p2p_doc(
            objects=[{"object_id": "a", "mtbu": "x", "reachable": "no"}],
            toggles={"caching": "yes", "p2p": True},
        )
        assert self.violations(doc) == [
            "objects[0].mtbu: must be a number, got 'x'",
            "objects[0].reachable: must be a boolean, got 'no'",
            "toggles.caching: must be a boolean, got 'yes'",
        ]

    @pytest.mark.parametrize(
        "over",
        [
            {"objects": 7},
            {"objects": [3]},
            {"clients": "c"},
            {"adjacency": ["a"]},
            {"workload": {"zipf_theta": "high"}},
            {"costs": {"hop": [1]}},
            {"history_burnin": "12"},
            {"cell": {"channels": "two"}},
            {"cell": {"cost_model": []}},
        ],
    )
    def test_other_fields(self, over):
        assert len(self.violations(p2p_doc(**over))) == 1


class TestIntegerFields:
    """An integer field, the seed and the duration take only integral
    numbers a run can use; anything else is a violation, not an escape."""

    @staticmethod
    def violations(doc) -> list[str]:
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        return err.value.violations

    def test_negative_seed(self):
        # it used to parse, and the run died in numpy's seeding
        assert self.violations(p2p_doc(seed=-1)) == ["seed: must be >= 0"]

    @pytest.mark.parametrize("key", ["seed", "duration_slots"])
    def test_boolean_seed_and_duration(self, key):
        assert self.violations(p2p_doc(**{key: True})) == [
            f"{key}: must be an integer, got True"
        ]

    @pytest.mark.parametrize("over, expected", [
        ({"objects": {"count": 2.7, "mtbu": 100.0}},
         "objects.count: must be an integer, got 2.7"),
        ({"clients": {"count": 2, "cache_capacity": 1.9}},
         "clients.cache_capacity: must be an integer, got 1.9"),
        ({"cache": {"read_window": 2.99}},
         "cache.read_window: must be an integer, got 2.99"),
        ({"duration_slots": 400.5}, "duration_slots: must be an integer, got 400.5"),
    ])
    def test_non_integral_value(self, over, expected):
        # each used to be truncated silently
        assert self.violations(p2p_doc(**over)) == [expected]

    @pytest.mark.parametrize("over, label, value", [
        ({"objects": {"count": 1e300, "mtbu": 100.0}}, "objects.count", 1e300),
        ({"cache": {"read_window": 1e300}}, "cache.read_window", 1e300),
        ({"seed": 2**63}, "seed", 2**63),
    ])
    def test_value_above_sys_maxsize(self, over, label, value):
        # objects.count used to escape as OverflowError from scenario_from_dict,
        # cache.read_window as OverflowError from run
        assert self.violations(p2p_doc(**over)) == [
            f"{label}: must be at most {sys.maxsize} in magnitude, got {value!r}"
        ]

    def test_integral_float_reads_as_int(self):
        doc = p2p_doc(seed=4.0, duration_slots=400.0,
                      objects={"count": 10.0, "mtbu": 120.0, "stdv_mtbu": 25.0})
        scn = scenario_from_dict(doc)
        assert (scn.seed, scn.duration_slots, len(scn.objects)) == (4, 400, 10)
        same = run(scenario_from_dict(p2p_doc(seed=4)))
        assert run(scn).to_json_bytes() == same.to_json_bytes()


class TestUpdateRate:
    """A tiny mtbu asks for more writes than a run can make."""

    def test_tiny_mtbu_rejected(self):
        # it used to run until killed: about 4e11 writes over 400 slots
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                p2p_doc(objects={"count": 3, "mtbu": 1e-9, "stdv_mtbu": 0.0})
            )
        assert err.value.violations == [
            f"objects[{i}]: mtbu 1e-09 is below duration_slots / 1000000 = 0.0004, "
            "more than 1000000 writes per object"
            for i in range(3)
        ]

    def test_low_end_of_mtbu_range_rejected(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(p2p_doc(objects={"count": 3, "mtbu_range": [1e-9, 500.0]}))
        assert err.value.violations == [
            "objects.mtbu_range: low end 1e-09 is below duration_slots / 1000000 = "
            "0.0004, more than 1000000 writes per object"
        ]

    def test_mtbu_at_the_bound_runs(self):
        doc = p2p_doc(duration_slots=40,
                      objects={"count": 1, "mtbu": 40 / 10**6, "stdv_mtbu": 0.0},
                      clients={"count": 2, "policy": "lru", "request_rate": 0.5})
        metrics = run(scenario_from_dict(doc))
        assert metrics.counters["answered"] == metrics.counters["issued"] > 0


class TestBoundaryEscapes:
    """Documents that used to pass the reader and then crash or hang."""

    def test_reversed_mtbu_range(self):
        # it used to escape as numpy's ValueError: high - low < 0
        doc = p2p_doc(objects={"count": 3, "mtbu_range": [200.0, 20.0]})
        assert violations(doc) == [
            "objects.mtbu_range: must be two finite numbers, low end first"
        ]

    def test_mtbu_beside_mtbu_range(self):
        # the range used to win and the mtbu was silently dropped
        doc = p2p_doc(objects={"count": 2, "mtbu": 50.0, "mtbu_range": [200.0, 300.0]})
        assert violations(doc) == ["objects: give mtbu or mtbu_range, not both"]

    def test_huge_ring_degree(self):
        # it used to loop over 5e11 steps per client
        scn = scenario_from_dict(p2p_doc(adjacency={"kind": "ring", "degree": 10**12}))
        ids = [c.client_id for c in scn.clients]
        assert scn.adjacency == {cid: set(ids) - {cid} for cid in ids}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_ring_neighbours_at_every_degree(self, n):
        ids = [f"c{i}" for i in range(n)]
        for degree in range(2 * n + 3):
            half = degree // 2
            doc = p2p_doc(clients=[{"client_id": cid} for cid in ids],
                          adjacency={"kind": "ring", "degree": degree})
            expected = {
                cid: {ids[(i + step) % n] for step in range(-half, half + 1)} - {cid}
                for i, cid in enumerate(ids)
            }
            assert scenario_from_dict(doc).adjacency == expected

    def test_negative_ring_degree(self):
        # it used to give every client no neighbour
        doc = p2p_doc(adjacency={"kind": "ring", "degree": -4})
        assert violations(doc) == ["adjacency.degree: must be >= 0"]

    def test_request_rate_past_a_million_requests(self):
        # generate_workload used to draw about 4e17 arrivals
        doc = p2p_doc(clients={"count": 1, "request_rate": 1e15})
        assert violations(doc) == [
            "clients.request_rate: 1000000000000000.0 is above 1000000 / "
            "duration_slots = 2500.0, more than 1000000 requests per client"
        ]

    def test_request_rate_at_the_bound_parses(self):
        doc = p2p_doc(clients=[{"client_id": "a", "request_rate": 2500.0}])
        assert scenario_from_dict(doc).clients[0].request_rate == 2500.0
        doc["clients"][0]["request_rate"] = 2500.5
        assert violations(doc) == [
            "clients[0].request_rate: 2500.5 is above 1000000 / duration_slots = "
            "2500.0, more than 1000000 requests per client"
        ]


class TestIdFields:
    """Ids are JSON strings that encode as UTF-8."""

    @pytest.mark.parametrize("value, problem", [
        (None, "a string"), (["a"], "a string"), (7, "a string"),
        ("a\ud800", "valid UTF-8"),
    ])
    def test_object_client_and_prefix_ids(self, value, problem):
        # None used to read as "None", ["a"] as "['a']"
        docs = {
            "objects[0].object_id": p2p_doc(objects=[{"object_id": value, "mtbu": 50.0}]),
            "clients[0].client_id": p2p_doc(clients=[{"client_id": value}]),
            "objects.id_prefix": p2p_doc(objects={"count": 2, "id_prefix": value}),
            "clients.id_prefix": p2p_doc(clients={"count": 2, "id_prefix": value}),
        }
        for label, doc in docs.items():
            assert violations(doc) == [f"{label}: must be {problem}, got {value!r}"]

    @pytest.mark.parametrize("change, expected", [
        ({"suppliers": [{"supplier_id": ["a"], "f_s": 0.5}]},
         "fidelity.suppliers[0].supplier_id: must be a string, got ['a']"),
        ({"models": [{"resource_id": ["bw"], "coefficients": [0.2, 0.0],
                      "intercept": 1.0}]},
         "fidelity.models[0].resource_id: must be a string, got ['bw']"),
        ({"parameters": [{"name": ["x"], "kind": "discrete", "values": [1]}]},
         "fidelity.parameters[0].name: must be a string, got ['x']"),
    ])
    def test_fidelity_ids(self, change, expected):
        # each used to escape as TypeError: unhashable type: 'list'
        section = {**TestFidelitySelection.FIDELITY, **change}
        assert violations(p2p_doc(fidelity=section)) == [expected]

    def test_lone_surrogate_rejected_before_the_csv(self):
        # it used to run and write JSON, then fail in to_csv_bytes
        doc = {"seed": 1, "duration_slots": 50,
               "objects": [{"object_id": "a\ud800", "mtbu": 20.0}],
               "clients": {"count": 2, "request_rate": 0.3}}
        assert violations(doc) == [
            "objects[0].object_id: must be valid UTF-8, got 'a\\ud800'"
        ]

    def test_non_ascii_ids_run(self):
        doc = {"seed": 1, "duration_slots": 50,
               "objects": [{"object_id": "é,\"x", "mtbu": 20.0}],
               "clients": {"count": 2, "request_rate": 0.3, "id_prefix": "ü"}}
        metrics = run(scenario_from_dict(doc))
        assert metrics.counters["issued"] > 0
        assert "ü0" in metrics.to_csv_bytes().decode()


def field_table() -> list[str]:
    """The README's table of scalar fields, one line per row of the schema."""
    kinds = {int: "integer", float: "number", bool: "boolean", str: "string",
             list: "list"}

    def default(row):
        if row.default is sim._REQUIRED:
            return "required"
        if row.default is None:
            return "absent"
        return "`inf`" if row.default == math.inf else f"`{json.dumps(row.default)}`"

    def bounds(row):
        text = [f"[{row.lo}, {row.hi}]" if row.hi is not None
                else f"> {row.above}" if row.above is not None
                else f">= {row.lo}" if row.lo is not None else ""]
        if row.no_limit:
            text.append("`inf` = no limit")
        return ", ".join(filter(None, text)) or "—"

    return [
        f"| `{section or '(top)'}` | `{row.key}` | "
        + (", ".join(f"`{v}`" for v in row.kind) if isinstance(row.kind, tuple)
           else kinds[row.kind])
        + f" | {default(row)} | {bounds(row)} |"
        for section, rows in sim.SCHEMA.items() for row in rows.values()
        if row.kind is not object
    ]


class TestSchemaTable:
    """One table declares every field; the reader applies its rows alike."""

    def test_defaults_come_from_the_table(self):
        scn = scenario_from_dict({})
        top, cache = sim.SCHEMA[""], sim.SCHEMA["cache"]
        assert (scn.seed, scn.history_burnin, scn.resolution_mode) == (
            top["seed"].default, top["history_burnin"].default,
            top["resolution_mode"].default,
        )
        assert (scn.default_ttl, scn.read_window) == (
            cache["default_ttl"].default, cache["read_window"].default,
        )
        cell = scenario_from_dict({"cell": {}}).cell
        for key, row in sim.SCHEMA["cell"].items():
            if key != "cost_model":
                assert getattr(cell, key) == row.default

    def test_readme_lists_every_field(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        missing = [line for line in field_table() if line not in readme.splitlines()]
        assert not missing

    def test_slot_duration_is_gone(self):
        doc = broadcast_doc()
        doc["cell"]["slot_duration"] = 1.0
        assert violations(doc) == ["cell: unknown key 'slot_duration'"]

    def test_compact_clients_report_a_range_once(self):
        doc = p2p_doc(clients={"count": 5, "cache_capacity": 0, "default_qos": 2.0,
                               "qos": {"obj0": -1}})
        assert violations(doc) == [
            "clients.cache_capacity: must be >= 1",
            "clients.default_qos: must be in [0, 1]",
            "clients.qos.obj0: must be in [0, 1]",
        ]

    def test_allowed_strings(self):
        doc = broadcast_doc(schema_id="v2", resolution_mode="both",
                            clients=[{"client_id": "a", "policy": "fifo"}])
        doc["cell"]["scheme"] = "all"
        # in the order of the document's keys
        assert violations(doc) == [
            "resolution_mode: must be 'p2p' or 'broadcast', got 'both'",
            "schema_id: must be 'aircell-scenario/1', got 'v2'",
            "clients[0].policy: must be 'lru', 'ttl_drop', 'ttl_requery', 'cqf' or "
            "'acqf', got 'fifo'",
            "cell.scheme: must be 'none', 'distributed', 'once_per_cycle' or "
            "'one_m', got 'all'",
        ]

    def test_ranges_of_other_sections(self):
        doc = p2p_doc(costs={"hop": -1.0}, history_burnin=2,
                      cache={"default_ttl": 0, "tick_interval": 0})
        assert violations(doc) == [
            "history_burnin: must be >= 3",
            "costs.hop: must be >= 0",
            "cache.default_ttl: must be > 0",
            "cache.tick_interval: must be >= 1",
        ]

    def test_null_reads_as_absent_for_optional_fields(self):
        doc = p2p_doc(adjacency=None, cell=None, fidelity=None,
                      cache={"default_ttl": None})
        doc["objects"]["stdv_mtbu"] = None
        scn = scenario_from_dict(doc)
        assert scn.cell is None and scn.fidelity is None and scn.default_ttl is None
        assert scn.objects[0].stdv_mtbu == 0.2 * 120.0

    def test_huge_integers_where_floats_go(self):
        big = 10**400
        doc = p2p_doc(objects={"count": 2, "mtbu_range": [1.0, big]},
                      fidelity={**TestFidelitySelection.FIDELITY, "models": [
                          {"resource_id": "bandwidth", "coefficients": [big, 0.0],
                           "intercept": 1.0},
                      ]})
        assert violations(doc) == [
            "objects.mtbu_range: must be two finite numbers, low end first",
            "fidelity.models: 'bandwidth' needs a finite coefficient for each of "
            "the 2 parameters and a finite intercept",
        ]


class TestUnrunnableCells:
    def test_dedicated_index_channel_needs_two_channels(self):
        doc = broadcast_doc()
        doc["cell"].update(channels=1, dedicated_index_channel=True)
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.violations == [
            "cell.dedicated_index_channel: needs at least 2 channels"
        ]

    def test_broadcast_needs_an_index(self):
        doc = broadcast_doc()
        doc["cell"]["scheme"] = "none"
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert [v.split(":")[0] for v in err.value.violations] == ["cell.scheme"]

    def test_unindexed_cell_still_plans_outside_broadcast_mode(self):
        doc = broadcast_doc(resolution_mode="p2p")
        doc["cell"].update(scheme="none", threshold=math.inf)
        scn = scenario_from_dict(doc)
        _, program = sim.plan_cell(scn, sim.initial_rates(scn))
        assert program is not None and program.scheme.kind == "none"


class TestInvariants:
    def test_causality_violation_raises(self, monkeypatch):
        resolve = p2p.InformationManager.resolve_query

        def from_the_future(self, service_id, qos, now):
            outcome = resolve(self, service_id, qos, now)
            return outcome._replace(write_time=now + 2)

        monkeypatch.setattr(p2p.InformationManager, "resolve_query", from_the_future)
        with pytest.raises(InvariantError, match="after slot"):
            run(scenario_from_dict(p2p_doc()))

    def test_conservation_violation_raises(self, monkeypatch):
        class LosesFirstAnswer(dict):
            def __setitem__(self, key, value):
                super().__setitem__(key, 0 if (key, value) == ("answered", 1) else value)

        @dataclasses.dataclass
        class LeakyMetrics(sim.Metrics):
            counters: dict = dataclasses.field(default_factory=LosesFirstAnswer)

        monkeypatch.setattr(sim, "Metrics", LeakyMetrics)
        with pytest.raises(InvariantError, match="issued"):
            run(scenario_from_dict(p2p_doc()))


# --------------------------------------------------------------------------
# Every document either raises ScenarioError or runs and conserves queries
# --------------------------------------------------------------------------

# (lo, hi) of the in-range draws of the fields that size a run, or that
# another field's range depends on; the table's own bounds still apply
SMALL = {
    "duration_slots": (20, 120), "count": (1, 5), "request_rate": (0.05, 0.3),
    "mtbu": (1, 300), "stdv_mtbu": (0, 60), "cache_capacity": (1, 6),
    "read_window": (2, 16), "history_burnin": (3, 12), "degree": (0, 12),
    "channels": (2, 4), "m": (1, 5), "replan_interval": (-3, 40),
    "tick_interval": (1, 6), "continuous_points": (1, 6), "switch_slots": (1, 3),
    "e_active": (0.5, 2), "e_doze": (0, 0.4), "e_switch": (0, 2),
}
# fields always drawn, so that most documents issue queries
SIZES = {"duration_slots", "count", "request_rate"}
# JSON values of every type, for a field of any kind
ANY_JSON = st.sampled_from([None, True, False, 0, 3, -1, 2.5, "x", "", [], [1], {},
                            {"k": 1}])


def in_range(row: sim.Field):
    """Values the table accepts for ``row``, run sizes kept small."""
    if row.kind is bool:
        return st.booleans()
    if row.kind is str:
        return st.text(max_size=3)
    if isinstance(row.kind, tuple):
        return st.sampled_from(row.kind)
    lo, hi = SMALL.get(row.key, (-50, 50))
    lo = max([lo] + [b for b in (row.lo, row.above) if b is not None])
    hi = hi if row.hi is None else min(hi, row.hi)
    if row.kind is int:
        return st.integers(lo, hi)
    values = st.floats(lo, hi, exclude_min=row.above is not None and lo <= row.above)
    return st.one_of(values, st.just(math.inf)) if row.no_limit else values


def out_of_range(row: sim.Field):
    """Values of ``row``'s kind that the table rejects."""
    if row.kind is str:
        return st.just("a\ud800")
    if isinstance(row.kind, tuple):
        return st.text(max_size=3).filter(lambda s: s not in row.kind)
    if row.kind not in (int, float):
        return ANY_JSON
    bad = [math.nan, -math.inf, 10**400]
    if not row.no_limit:
        bad.append(math.inf)
    if row.kind is int:
        bad += [0.5, 2**63, 1e300]
    if row.lo is not None:
        bad.append(row.lo - (1 if row.kind is int else 0.5))
    if row.above is not None:
        bad.append(row.above)
    if row.hi is not None:
        bad.append(row.hi + 0.5)
    return st.sampled_from(bad)


def section(draw, name: str, **given) -> dict:
    """Section ``name`` with the values in ``given`` (None leaves a key out),
    and in-range values for its other required fields, its run sizes and a
    drawn subset of the rest."""
    out = {}
    for key, row in sim.SCHEMA[name].items():
        if key in given:
            if given[key] is not None:
                out[key] = given[key]
        elif row.kind is not object and (
            row.default is sim._REQUIRED or key in SIZES or draw(st.booleans())
        ):
            out[key] = draw(in_range(row))
    return out


def sections_of(doc: dict):
    """(table section, mapping) of every section of the table the document
    holds; a section ending in ``[]`` is each mapping of a list, and one
    ending in ``.*`` each mapping that is a value of a mapping."""
    for path in sim.SCHEMA:
        nodes = [doc]
        for name in filter(None, path.removesuffix("[]").split(".")):
            nodes = [
                child for node in nodes if isinstance(node, dict)
                for child in (node.values() if name == "*" else [node.get(name)])
                if name == "*" or name in node
            ]
        if path.endswith("[]"):
            nodes = [entry for node in nodes if isinstance(node, list) for entry in node]
        yield from ((path, node) for node in nodes if isinstance(node, dict))


def some(draw, values: list) -> list:
    return draw(st.lists(st.sampled_from(values), max_size=3, unique=True)) if values else []


@st.composite
def documents(draw):
    """A document of in-range values from the table, then a few of its
    fields set to out-of-range or wrongly typed values."""
    object_ids = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=4,
                               unique=True))
    if draw(st.booleans()):
        low = draw(st.floats(1, 300))
        mtbu_range = draw(st.sampled_from([None, [low, low * 2]]))
        objects = section(draw, "objects", mtbu_range=mtbu_range)
        object_ids = []
    else:
        objects = [section(draw, "objects[]", object_id=oid) for oid in object_ids]

    def client(name: str, **given) -> dict:
        qos = {oid: draw(in_range(sim._QOS)) for oid in some(draw, object_ids)}
        return section(draw, name, qos=qos, **given)

    client_ids = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=4,
                               unique=True))
    if draw(st.booleans()):
        clients = client("clients")
        client_ids = []
    else:
        clients = [client("clients[]", client_id=cid, providers=some(draw, object_ids))
                   for cid in client_ids]
    adjacency = draw(st.sampled_from([None, "ring", "map"]))
    if adjacency == "ring":
        adjacency = section(draw, "adjacency")
    elif adjacency == "map":
        adjacency = {cid: some(draw, client_ids) for cid in some(draw, client_ids)}
    mode = draw(st.sampled_from(sim.SCHEMA[""]["resolution_mode"].kind))
    cell = None
    if mode == "broadcast" or draw(st.booleans()):
        cell = section(draw, "cell", cost_model=section(draw, "cell.cost_model"))
    fidelity_section = None
    if draw(st.booleans()):
        limits = {"bandwidth": draw(in_range(sim._LIMIT))}
        fidelity_section = {**json.loads(json.dumps(TestFidelitySelection.FIDELITY)),
                            **section(draw, "fidelity", limits=limits)}
        if draw(st.booleans()):  # a continuous parameter with a sigmoid utility
            lo = draw(st.floats(-50, 50))
            hi = lo + draw(st.floats(0.5, 50))
            knee = draw(st.floats(-60, 60))
            fidelity_section["parameters"].append(
                {"name": "bitrate", "kind": "continuous", "lo": lo, "hi": hi})
            fidelity_section["utilities"]["bitrate"] = {
                "sigmoid": [knee, knee + draw(st.floats(0.5, 60))]}
            fidelity_section["weights"]["bitrate"] = draw(in_range(sim._QOS))
            fidelity_section["models"][0]["coefficients"].append(draw(st.floats(-1, 1)))
    doc = section(
        draw, "", resolution_mode=mode, objects=objects, clients=clients,
        adjacency=adjacency, toggles=section(draw, "toggles"),
        workload=section(draw, "workload"), costs=section(draw, "costs"),
        cache=section(draw, "cache"), cell=cell, fidelity=fidelity_section,
    )
    for _ in range(draw(st.integers(0, 2))):
        name, mapping = draw(st.sampled_from(list(sections_of(doc))))
        row = draw(st.sampled_from(list(sim.SCHEMA[name].values())))
        mapping[row.key] = draw(st.one_of(out_of_range(row), ANY_JSON))
    return doc


class TestEveryDocument:
    @settings(max_examples=300, deadline=None)
    @given(documents())
    def test_rejected_or_conserving(self, doc):
        try:
            scn = scenario_from_dict(doc)
        except ScenarioError:
            return
        metrics = run(scn)
        counters = metrics.counters
        assert counters["answered"] + counters["unresolved"] == counters["issued"]
        metrics.to_json_bytes()
        metrics.to_csv_bytes()
