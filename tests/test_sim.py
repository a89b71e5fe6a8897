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
            "fidelity.parameters[0]: unknown kind 'stepped'"
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
            "fidelity: missing key 'resolution'"
        ]

    def test_sigmoid_on_categorical_values(self):
        utilities = {**TestFidelitySelection.FIDELITY["utilities"],
                     "resolution": {"sigmoid": [0, 1]}}
        assert self.violations(utilities=utilities) == [
            "fidelity: resolution: a sigmoid needs numeric values"
        ]

    def test_listed_with_the_other_violations(self):
        doc = p2p_doc(fidelity={**TestFidelitySelection.FIDELITY, "weights": 3},
                      toggles=[])
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.violations == [
            "toggles: must be a mapping, got list",
            "fidelity: 'int' object is not subscriptable",
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
    ("cell", "slot_duration"), ("cell", "total_bandwidth"),
    ("cell", "request_size"), ("cell", "threshold"), ("cell", "batching_window"),
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
            return dataclasses.replace(outcome, payload_write_time=now + 2)

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
