import builtins
import hashlib
import importlib.util
import json
import math
import statistics
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from aircell import fidelity, p2p, retrieval, sim
from aircell.freshness import InvariantError, SourceObject
from aircell.sim import (
    ScenarioError,
    generate_workload,
    run,
    scenario_from_dict,
    substream,
    zipf_pmf,
)
from oracles import (
    UpdateProcessReference,
    arrival_times_reference,
    generate_workload_reference,
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


class TestUpdateDraws:
    """Update intervals come from blocks of normals; the reference draws one
    scalar normal per interval, as the engine's update process did before."""

    @pytest.mark.parametrize("mtbu, stdv", [
        (10.0, 3.0),
        (10.0, 0.0),  # no draws at all: every interval is mtbu
        (5.0, 50.0),  # nearly half the draws are nonpositive and drawn again
    ])
    def test_write_times_match_scalar_draws(self, mtbu, stdv):
        spec = sim.ObjectSpec("o", mtbu, stdv, True)
        source = SourceObject("o", schedule=sim._write_times(spec, 7, 12))
        scalars = UpdateProcessReference(spec, 7, 12)
        for t in range(0, 20_001, 1000):
            scalars.advance_to(t)
            assert source.last_write(t) == scalars.source.log.update_times[-1]
            assert source.log.update_times == scalars.source.log.update_times
        # the write after the last one applied is the reference's next one
        assert source.last_write(scalars.next_update) == scalars.next_update
        # each write takes at least one draw, so many blocks were crossed
        assert len(source.log.update_times) > 10 * sim._DRAW_BLOCK

    def test_an_array_draw_is_scalar_draws(self):
        # the installed numpy's ``normal(size=k)`` must equal k scalar draws
        blocks, scalars = substream(3, "updates", "o"), substream(3, "updates", "o")
        drawn = [x for k in (1, 5, 32, 7) for x in blocks.normal(4.0, 9.0, size=k).tolist()]
        assert drawn == [float(scalars.normal(4.0, 9.0)) for _ in drawn]


class TestWorkload:
    def test_zero_rate_gives_empty_stream(self):
        scn = scenario_from_dict(p2p_doc(clients={
            "count": 3, "request_rate": 0.0, "policy": "lru",
        }))
        streams = generate_workload(scn)
        assert sorted(streams) == ["client0", "client1", "client2"]
        assert not any(streams.values())

    def test_same_seed_identical_streams(self):
        scn = scenario_from_dict(p2p_doc(seed=42))
        assert generate_workload(scn) == generate_workload(scn)

    def test_different_seeds_differ(self):
        a = generate_workload(scenario_from_dict(p2p_doc(seed=1)))
        b = generate_workload(scenario_from_dict(p2p_doc(seed=2)))
        assert a != b

    def test_times_within_duration(self):
        scn = scenario_from_dict(p2p_doc(seed=5))
        for stream in generate_workload(scn).values():
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
        counts = {}
        for stream in generate_workload(scn).values():
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


def workload_and_generators(generate, module, scenario):
    """``generate(scenario)`` and the final state of each generator it
    built through ``module.substream``, by label."""
    made = {}
    original = module.substream

    def recording(seed, *labels):
        made[labels] = original(seed, *labels)
        return made[labels]

    with mock.patch.object(module, "substream", recording):
        streams = generate(scenario)
    return streams, {labels: rng.bit_generator.state for labels, rng in made.items()}


# a client's rate: one that never asks, one whose first gap passes the end
# of any run here, and one that asks many times
_KINDS = {"idle": 0.0, "past_end": 1e-12, "busy": None}


class TestBlockDraws:
    """Arrival gaps drawn in blocks against one scalar draw per arrival."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        duration=st.integers(0, 500),
        kinds=st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=4),
        busy_rate=st.floats(0.01, 2.0),
        # blocks this small make a busy client draw many of them
        block=st.sampled_from([1, 2, 5, 64, sim._MAX_EVENTS]),
    )
    def test_same_streams_and_generator_states(
        self, seed, duration, kinds, busy_rate, block
    ):
        rates = dict(_KINDS, busy=busy_rate)
        scenario = scenario_from_dict(p2p_doc(
            seed=seed, duration_slots=duration,
            clients=[{"client_id": f"c{i}", "request_rate": rates[kind]}
                     for i, kind in enumerate(kinds)],
        ))
        with mock.patch.object(sim, "_MAX_EVENTS", block):
            streams, states = workload_and_generators(generate_workload, sim, scenario)
        expected, expected_states = workload_and_generators(
            generate_workload_reference, oracles, scenario
        )
        assert streams == expected
        for i, kind in enumerate(kinds):
            labels = ("workload", f"c{i}")
            if kind == "idle":
                assert labels not in states  # it builds no generator
            else:
                assert states[labels] == expected_states[labels]
            if kind == "past_end":
                assert streams[f"c{i}"] == ()

    @pytest.mark.parametrize("seed, blocks", [(1, 2), (3, 1)])
    def test_the_schema_maximum_rate(self, seed, blocks):
        duration = 400
        rate = sim._MAX_EVENTS / duration
        scenario_from_dict(p2p_doc(duration_slots=duration, clients=[
            {"client_id": "c", "request_rate": rate}
        ]))  # the schema takes it
        drawn, scalar = substream(seed, "workload", "c"), substream(seed, "workload", "c")
        times = sim._arrival_times(drawn, rate, duration)
        assert times == arrival_times_reference(scalar, rate, duration)
        assert drawn.bit_generator.state == scalar.bit_generator.state
        # a full first block means a second one was drawn
        assert (len(times) >= sim._MAX_EVENTS) == (blocks == 2)


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

    # CPython 3.12's float sum() is compensated; the engine adds its floats
    # left to right itself, so one set of pins holds on every interpreter
    @pytest.mark.parametrize(
        "name", [*sorted(GOLDEN), "p2p_lru", "p2p_qf_churn", "broadcast_replan"])
    def test_pins_hold_under_compensated_sum(self, name, monkeypatch):
        monkeypatch.setattr(builtins, "sum", oracles.compensated_sum)
        if name in self.GOLDEN:
            self.test_golden_digest(name)
        else:
            self.test_benchmark_pins(name)

    def test_compensated_sum_stand_in(self, rng):
        stand_in = oracles.compensated_sum
        # 0.1 added ten times left to right is 0.9999999999999999
        assert stand_in([0.1] * 10) == 1.0
        assert stand_in([1e100, 1.0, -1e100, 1.0]) == 2.0
        assert stand_in([math.inf, 1.0]) == math.inf
        assert math.copysign(1.0, stand_in([-0.0], -0.0)) == -1.0
        assert stand_in([1, 2, True]) == 4 and type(stand_in([1, 2])) is int
        assert stand_in([2**64, 0.5]) == 2**64 + 0.5
        mixed = [0.1, 3, np.float64(0.2), 0.3]
        assert stand_in(mixed) == ((0.1 + 3.0) + np.float64(0.2)) + 0.3
        if sys.version_info >= (3, 12):  # the real thing is at hand
            for _ in range(200):
                xs = (rng.standard_normal(int(rng.integers(0, 30)))
                      * 10.0 ** rng.integers(-5, 5)).tolist()
                assert stand_in(xs) == sum(xs)

    def test_mixed_document_exercises_every_path(self):
        metrics = run(scenario_from_dict(mixed_doc()))
        c = metrics.counters
        assert c["unresolved"] > 0 and c["requeries"] > 0 and c["ttl_drops"] > 0
        kinds = {r.resolution for r in metrics.records}
        assert {"local_cache", "neighbor_cache", "local_provider", "neighbor_provider",
                "source", "unresolved"} <= kinds
        # a source or provider read is of the source at its slot: exactly +0.0
        read = [r.staleness_slots for r in metrics.records
                if r.resolution in ("source", "local_provider", "neighbor_provider")]
        assert all(s == 0.0 and math.copysign(1.0, s) == 1.0 for s in read)
        assert any(r.staleness_slots > 0 for r in metrics.records)

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

    @pytest.mark.parametrize("doc", [
        *(broadcast_doc(seed=7, cell=dict(broadcast_doc()["cell"], batching_window=w))
          for w in (0.0, 0.5, 4.0, 7.0)),
        dedicated_index_doc(),
    ], ids=["window 0", "window 0.5", "window 4", "window 7", "dedicated index"])
    def test_on_demand_answers_follow_the_batching_rule(self, doc):
        metrics = run(scenario_from_dict(doc))
        window = doc["cell"]["batching_window"]
        expected, sizes = oracles.batches_reference(metrics.records, window)
        assert len(expected) > len(set(r.object_id for r in metrics.records
                                       if r.resolution == "on_demand")) > 1
        got = {r.query_id: r.latency_slots for r in metrics.records
               if r.resolution == "on_demand"}
        assert got == expected
        assert metrics.counters["on_demand_responses"] == len(sizes)
        assert metrics.counters["batching_saved"] == sum(n - 1 for n in sizes)
        assert (metrics.counters["batching_saved"] > 0) == (window > 0)

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

        for name in ("SourceObject", "_write_times", "P2PCell", "InformationManager",
                     "ClientCache"):
            monkeypatch.setattr(sim, name, refuse)
        metrics = run(scenario_from_dict(doc_fn()))
        assert metrics.counters["index_reads"] > 0
        assert metrics.counters["on_demand_responses"] > 0

    @pytest.mark.parametrize("bandwidth, seed, on_air, index_reads", [
        (4.0, 2, 80, 0),  # on air for one 40-slot interval of ten
        (4.0, 5, 80, 3),  # the same, and queries read its index
        (10.0, 1, 720, 10),  # off air for one interval of ten
    ])
    def test_broadcast_slots_count_the_programs_on_air(
        self, monkeypatch, bandwidth, seed, on_air, index_reads
    ):
        doc = on_and_off_air_doc(seed)
        doc["cell"]["total_bandwidth"] = bandwidth
        plans = []  # every plan made, in order: at slot 0, then every 40 slots
        plan_cell = sim.plan_cell

        def recording(*args):
            plans.append(plan_cell(*args))
            return plans[-1]

        monkeypatch.setattr(sim, "plan_cell", recording)
        metrics = run(scenario_from_dict(doc))
        assert len(plans) == 10
        in_force, expected, aired = None, 0, set()
        for i, (result, program) in enumerate(plans):
            if i == 0 or result.feasible:  # the first plan is adopted whatever it is
                in_force = program
            aired.add(in_force is not None)
            expected += 40 * (in_force.n_channels if in_force is not None else 0)
        assert aired == {True, False}  # the cell went on or off air
        assert metrics.counters["broadcast_slots"] == expected == on_air
        assert metrics.counters["index_reads"] == index_reads

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


class TestNoFidelitySection:
    def test_a_fidelity_section_is_an_unknown_key(self):
        # the engine no longer selects a configuration, so no scenario reads one
        section = {"parameters": [{"name": "rate", "kind": "discrete", "values": [1, 2]}],
                   "utilities": {"rate": {"table": {"1": 0.5, "2": 1.0}}},
                   "weights": {"rate": 1.0}, "suppliers": [{"supplier_id": "s", "f_s": 1}]}
        assert violations(p2p_doc(fidelity=section, toggles=[])) == [
            "unknown key 'fidelity'",
            "toggles: must be a mapping, got list",
        ]

    @pytest.mark.parametrize("doc_fn", [p2p_doc, broadcast_doc])
    def test_json_head_keys(self, doc_fn):
        head = json.loads(run(scenario_from_dict(doc_fn())).to_json_bytes())
        assert sorted(head) == [
            "counters", "duration_slots", "fidelity_selection", "per_client_energy",
            "plan", "records", "schema_id", "seed", "summary",
        ]
        assert head["fidelity_selection"] is None


# The domain of a sample log: a discrete numeric and a discrete string parameter.
DOMAIN = [
    {"name": "frame_rate", "kind": "discrete", "values": [20, 30, 40]},
    {"name": "resolution", "kind": "discrete", "values": ["high", "low"]},
]


def domain_violations(domain) -> list[str]:
    """The violations ``read_sample_log`` raises for a log over ``domain``."""
    with pytest.raises(ScenarioError) as err:
        sim.read_sample_log({"domain": domain, "samples": []})
    return err.value.violations


def continuous_rate(**entry) -> list:
    """``DOMAIN`` with frame_rate made continuous and its entry's fields set
    to ``entry``."""
    domain = json.loads(json.dumps(DOMAIN))
    domain[0] = {"name": "frame_rate", "kind": "continuous", "lo": 20, "hi": 40, **entry}
    return domain


def changed(path: str, value) -> list:
    """``DOMAIN`` with the value at ``path`` (list indices and keys joined by
    dots) replaced by ``value``."""
    domain = json.loads(json.dumps(DOMAIN))
    *parents, last = path.split(".")
    node = domain
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value
    return domain


class TestFidelityRows:
    """A sample log's parameter list is read by the table; every violation
    starts with its field's path. Each of these lists was accepted before,
    or reported with Python's exception text in place of a path."""

    @pytest.mark.parametrize("domain, expected", [
        pytest.param(changed("0.values", "234"), [
            "domain[0].values: must be a list, got '234'",
        ], id="string values"),
        pytest.param(changed("0.values", [20, 30, 20]), [
            "domain[0].values: must be distinct strings or finite numbers",
        ], id="duplicate values"),
        pytest.param(changed("0.values", {"20": 20}), [
            "domain[0].values: must be a list, got {'20': 20}",
        ], id="mapping values"),
        pytest.param(changed("1.unit", "px"), [
            "domain[1]: unknown key 'unit'",
        ], id="unknown parameter key"),
        pytest.param(continuous_rate(lo="20"), [
            "domain[0].lo: must be a number, got '20'",
        ], id="string lo"),
        pytest.param(changed("0.kind", "stepped"), [
            "domain[0].kind: must be 'discrete' or 'continuous', got 'stepped'",
        ], id="unknown kind"),
    ])
    def test_violation_paths(self, domain, expected):
        assert domain_violations(domain) == expected

    @pytest.mark.parametrize("domain, expected", [
        (continuous_rate(lo=40), ["domain[0]: lo must be below hi"]),
        (changed("0", {"name": "frame_rate", "kind": "discrete"}),
         ["domain[0]: missing key 'values'"]),
        (changed("0", {"name": "frame_rate", "kind": "continuous"}),
         ["domain[0]: missing key 'lo'", "domain[0]: missing key 'hi'"]),
        (changed("0", {"name": "frame_rate", "kind": "continuous", "lo": 20.0}),
         ["domain[0]: missing key 'hi'"]),
        (changed("0.values", [20, True]),
         ["domain[0].values: must be distinct strings or finite numbers"]),
        (changed("1.name", "frame_rate"), ["domain: duplicate parameter names"]),
        # np.linspace over an infinite span gives NaN grid values
        (continuous_rate(lo=-1e308, hi=1e308), ["domain[0]: hi - lo must be finite"]),
        # 'a' would be encoded as its rank 0, the coordinate of the value 0
        (changed("0.values", ["a", 0, 5]),
         ["domain[0].values: must be distinct strings or finite numbers"]),
    ], ids=[
        "lo not below hi", "discrete without values", "continuous without bounds",
        "continuous without hi", "boolean value", "duplicate names", "span overflows",
        "strings and numbers mixed",
    ])
    def test_checks_that_span_fields(self, domain, expected):
        assert domain_violations(domain) == expected

    @pytest.mark.parametrize("values", [["low", "high"], [0, 2.5, 5]])
    def test_discrete_values_of_one_kind_read(self, values):
        errs = []
        entry = {"name": "v", "kind": "discrete", "values": values}
        domain = sim.read_parameters([entry], "domain", errs)
        assert errs == []
        assert domain.parameters[0].values == tuple(values)

    def test_a_malformed_parameter_list_ends_the_reading(self):
        # the samples are read against the list, so theirs go unreported
        log = {"domain": changed("0.values", "234"), "samples": [{"config": 3}]}
        with pytest.raises(ScenarioError) as err:
            sim.read_sample_log(log)
        assert err.value.violations == ["domain[0].values: must be a list, got '234'"]

    def test_one_reader_for_the_parameter_list(self, monkeypatch, tmp_path, capsys):
        from aircell import cli

        calls = []
        read_parameters = sim.read_parameters

        def counted(spec, where, errs):
            calls.append(where)
            return read_parameters(spec, where, errs)

        monkeypatch.setattr(sim, "read_parameters", counted)
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"domain": [], "samples": [
            {"config": {}, "consumption": {"cpu": 2.0}}]}))
        assert cli.main(["fit", "--samples", str(path)]) == 0
        assert calls == ["domain"]
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
                      "objects.mtbu: must be finite")

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_stdv_mtbu(self, value):
        doc = p2p_doc(objects=[{"object_id": "a", "mtbu": 50.0, "stdv_mtbu": value}])
        self.rejected(doc, "objects[0].stdv_mtbu: must be finite")

    @pytest.mark.parametrize("bounds", [[math.nan, 200.0], [20.0, math.inf],
                                        [-math.inf, 5.0], [20.0], "ab"])
    def test_mtbu_range(self, bounds):
        self.rejected(p2p_doc(objects={"count": 3, "mtbu_range": bounds}), "mtbu_range")

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_request_rate(self, value):
        doc = p2p_doc(clients={"count": 2, "policy": "lru", "request_rate": value})
        self.rejected(doc, "clients.request_rate: must be finite")


    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("path", FLOAT_FIELDS, ids=".".join)
    def test_every_float_field(self, path, value):
        doc = with_field(path, value)
        *section, key = path
        label = ".".join(path)
        if path in NO_LIMIT_FIELDS:
            if value == math.inf:
                scenario_from_dict(doc)  # inf is "no limit" here
                return
            expected = f"{label}: must be finite or inf, got {value!r}"
        else:
            expected = f"{label}: must be finite, got {value!r}"
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.violations == [expected]

    @pytest.mark.parametrize("objects, expected", [
        # burn-in summed to -inf
        ({"count": 3, "mtbu": 1e308, "stdv_mtbu": 0}, ["objects.mtbu: must be in (0, 1e+150]"]),
        # squared past float max
        ({"count": 3, "mtbu": 1e300, "stdv_mtbu": 1e300},
         ["objects.mtbu: must be in (0, 1e+150]", "objects.stdv_mtbu: must be in [0, 1e+150]"]),
        ({"count": 3, "mtbu": 50.0, "stdv_mtbu": 1e151},
         ["objects.stdv_mtbu: must be in [0, 1e+150]"]),
        ({"count": 3, "mtbu_range": [1e149, 1e300]},
         ["objects.mtbu_range: must be two numbers, 0 < low <= high <= 1e+150"]),
        ([{"object_id": "a", "mtbu": 1e151}, {"object_id": "b", "mtbu": 5.0, "stdv_mtbu": 1e151}],
         ["objects[0].mtbu: must be in (0, 1e+150]",
          "objects[1].stdv_mtbu: must be in [0, 1e+150]"]),
    ], ids=[f"objects{i}" for i in range(5)])
    def test_huge_finite_mtbu_rejected_before_the_run(self, objects, expected):
        assert violations(p2p_doc(objects=objects)) == expected

    @pytest.mark.parametrize("doc_fn", [p2p_doc, broadcast_doc])
    def test_largest_mtbu_runs(self, doc_fn):
        doc = doc_fn(objects={"count": 3, "mtbu": 1e150, "stdv_mtbu": 1e150})
        metrics = run(scenario_from_dict(doc))
        assert metrics.counters["answered"] == metrics.counters["issued"] > 0

    def test_nan_zipf_theta_rejected_before_the_run(self):
        # it used to parse, and the run died in numpy's sampler
        with pytest.raises(ScenarioError, match="workload.zipf_theta: must be finite"):
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


# the latency and energy inputs capped at sim._MAX_COST
COST_FIELDS = [
    ("costs", "local"), ("costs", "hop"), ("costs", "source"),
    ("cell", "batching_window"),
    ("cell.cost_model", "e_active"), ("cell.cost_model", "e_doze"),
    ("cell.cost_model", "e_switch"),
]


class TestCostCaps:
    """A latency or energy input at its cap keeps every reported number
    finite; each used to make some of them inf at 1e308."""

    @pytest.mark.parametrize("path", COST_FIELDS, ids=".".join)
    def test_at_the_cap_every_number_is_finite(self, path):
        cap = sim._MAX_COST
        if path == ("cell.cost_model", "e_doze"):
            # dozing must cost less than listening, which is at the cap
            doc = with_field(path, math.nextafter(cap, 0.0))
            doc["cell"]["cost_model"]["e_active"] = cap
        else:
            doc = with_field(path, cap)
        if path[0] == "costs":
            doc["resolution_mode"] = "p2p"
        if path == ("cell.cost_model", "e_switch"):
            # every read then switches from the index channel to a data channel
            doc["cell"]["dedicated_index_channel"] = True
        metrics = run(scenario_from_dict(doc))
        latencies = [r.latency_slots for r in metrics.records]
        energies = list(metrics.per_client_energy.values())
        assert all(map(math.isfinite, [*metrics.summary().values(), *latencies, *energies]))
        # the capped input is charged: it shows in some latency or energy
        charged = energies if path[0] == "cell.cost_model" else latencies
        assert max(charged) >= math.nextafter(cap, 0.0)

    @pytest.mark.parametrize("path", COST_FIELDS, ids=".".join)
    def test_above_the_cap_is_one_violation(self, path):
        doc = with_field(path, math.nextafter(sim._MAX_COST, math.inf))
        assert violations(doc) == [f"{'.'.join(path)}: must be in [0, 1e+270]"]


def strict_json(text):
    """``text`` parsed as JSON, refusing the NaN and Infinity it does not define."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestPlannerRanges:
    """A total bandwidth or Zipf exponent at its cap runs, and an unstable
    plan is written as strict JSON. At 1e308 the bandwidth made the split
    search's midpoint inf, and the exponent overflowed ``np.power``."""

    def test_bandwidth_at_the_cap_plans_finitely(self):
        metrics = run(scenario_from_dict(
            with_field(("cell", "total_bandwidth"), sim._MAX_BANDWIDTH)
        ))
        plan = metrics.plan
        assert plan["feasible"] and plan["b_b"] + plan["b_d"] == sim._MAX_BANDWIDTH
        assert all(map(math.isfinite, (plan["expected_access_raw"],
                                       plan["expected_access_normalized"])))
        strict_json(metrics.to_json_bytes())

    def test_bandwidth_above_the_cap_is_one_violation(self):
        doc = with_field(("cell", "total_bandwidth"),
                         math.nextafter(sim._MAX_BANDWIDTH, math.inf))
        assert violations(doc) == ["cell.total_bandwidth: must be in (0, 1e+307]"]

    def test_unstable_plan_writes_null(self):
        # 6 clients x 0.08 requests per slot x 1.25 = 0.6 > 0.5: not even the
        # all-on-demand partition is stable
        metrics = run(scenario_from_dict(with_field(("cell", "total_bandwidth"), 0.5)))
        plan = strict_json(metrics.to_json_bytes())["plan"]
        assert plan == metrics.plan
        assert (plan["feasible"], plan["published_count"]) == (False, 0)
        assert plan["expected_access_raw"] is None
        assert plan["expected_access_normalized"] is None

    def test_zipf_pmf_at_the_cap_with_the_most_objects(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pmf = sim.zipf_pmf(sim._MAX_EVENTS, sim._MAX_ZIPF_THETA)
        assert np.isfinite(pmf).all() and pmf[0] > 0.0
        metrics = run(scenario_from_dict(p2p_doc(workload={"zipf_theta": sim._MAX_ZIPF_THETA})))
        # every query asks for the most popular object: the next has odds 2^-51
        assert metrics.records and {r.object_id for r in metrics.records} == {"obj0"}

    def test_zipf_above_the_cap_is_one_violation(self):
        doc = p2p_doc(workload={"zipf_theta": math.nextafter(sim._MAX_ZIPF_THETA, math.inf)})
        assert violations(doc) == ["workload.zipf_theta: must be in [0, 51.0]"]

    def test_objects_list_past_the_cap_is_one_violation(self):
        # one mapping listed many times: the length is checked before any entry
        doc = p2p_doc(objects=[{"object_id": "o", "mtbu": 100.0}] * (sim._MAX_EVENTS + 1))
        assert violations(doc) == ["objects: must hold at most 1000000 objects, got 1000001"]


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

    @pytest.mark.parametrize("size", [10**6 + 1, 10**12])
    @pytest.mark.parametrize("over, label", [
        (lambda n: {"history_burnin": n}, "history_burnin"),
        (lambda n: {"objects": {"count": n, "mtbu": 100.0}}, "objects.count"),
        (lambda n: {"clients": {"count": n, "request_rate": 0.1}}, "clients.count"),
    ], ids=["history_burnin", "objects.count", "clients.count"])
    def test_sizes_expanded_before_any_check_are_capped(self, over, label, size):
        # history_burnin 10**12 used to parse, and the run drew 10**12 burn-in
        # writes per source; a refused count reads as 0, so nothing is built
        assert self.violations(p2p_doc(**over(size))) == [
            f"{label}: must be in [{0 if 'count' in label else 3}, 1000000]"
        ]

    def test_duration_is_capped(self):
        # 10**12 used to parse, and both slot loops step through every slot
        assert self.violations({"seed": 1, "duration_slots": 10**12}) == [
            "duration_slots: must be in [0, 1000000]"
        ]
        metrics = run(scenario_from_dict({"seed": 1, "duration_slots": 10**6}))
        assert (metrics.duration_slots, metrics.counters["issued"]) == (10**6, 0)

    def test_channels_are_capped(self):
        # 10**9 used to parse; dump-program prints a row per channel
        assert self.violations(broadcast_doc(cell={"channels": 10**6 + 1})) == [
            "cell.channels: must be in [1, 1000000]"
        ]
        assert scenario_from_dict(broadcast_doc(cell={"channels": 10**6})).cell.channels == 10**6

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
            "objects.mtbu: 1e-09 is below duration_slots / 1000000 = 0.0004, "
            "more than 1000000 writes per object"
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


WRITES = "is below duration_slots / 1000000 = {}, more than 1000000 writes per object"


class TestCheckedWhereRead:
    """Each value is checked once, where the reader reads it."""

    def test_bad_mtbu_of_a_block_reported_once(self):
        # it was reported once per object, and so was the stdv_mtbu derived
        # from it: six violations
        assert violations(p2p_doc(objects={"count": 3, "mtbu": -1.0})) == [
            "objects.mtbu: must be in (0, 1e+150]"
        ]

    def test_unknown_qos_object_of_a_block_reported_once(self):
        # it was reported once per client
        doc = p2p_doc(clients={"count": 4, "qos": {"nope": 0.5}})
        assert violations(doc) == ["clients.qos: unknown object 'nope'"]

    def test_unknown_ids_named_by_their_entry(self):
        # they were numbered among the clients read, so an entry left out
        # shifted the next entry's index
        doc = p2p_doc(clients=[
            {"client_id": "a"}, {"cache_capacity": 2},
            {"client_id": "c", "qos": {"ghost": 0.5}, "providers": ["obj0", 7]},
        ])
        assert violations(doc) == [
            "clients[1]: missing key 'client_id'",
            "clients[2].qos: unknown object 'ghost'",
            "clients[2].providers: unknown object 7",
        ]

    def test_tiny_mtbu_of_an_entry(self):
        doc = p2p_doc(objects=[{"object_id": "a", "mtbu": 50.0},
                               {"object_id": "b", "mtbu": 1e-9}])
        assert violations(doc) == ["objects[1].mtbu: 1e-09 " + WRITES.format(0.0004)]

    def test_default_mtbu_of_a_block_checked_against_the_duration(self):
        # duration_slots is capped at 10**6, which asks only 10**4 writes of
        # the default mtbu 100, so the write cap is lowered to 100 here
        doc = p2p_doc(duration_slots=10**5, objects={"count": 3}, clients={"count": 2})
        with mock.patch.object(sim, "_MAX_EVENTS", 100):
            assert violations(doc) == [
                "objects.mtbu: 100.0 is below duration_slots / 100 = 1000.0, "
                "more than 100 writes per object"
            ]
            # a refused mtbu reads as that default, and is reported alone
            doc["objects"]["mtbu"] = -1.0
            assert violations(doc) == ["objects.mtbu: must be in (0, 1e+150]"]

    @pytest.mark.parametrize("low", [-5.0, 0.0, -1e-300])
    def test_non_positive_low_end_of_mtbu_range(self, low):
        # it was reported as more than 10**6 writes, beside whichever of the
        # objects the seed drew at or below 0
        for seed in range(4):
            doc = p2p_doc(seed=seed, objects={"count": 3, "mtbu_range": [low, 100.0]})
            assert violations(doc) == [
                "objects.mtbu_range: must be two numbers, 0 < low <= high <= 1e+150"
            ]


class TestBoundaryEscapes:
    """Documents that used to pass the reader and then crash or hang."""

    def test_reversed_mtbu_range(self):
        # it used to escape as numpy's ValueError: high - low < 0
        doc = p2p_doc(objects={"count": 3, "mtbu_range": [200.0, 20.0]})
        assert violations(doc) == [
            "objects.mtbu_range: must be two numbers, 0 < low <= high <= 1e+150"
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

    def test_a_client_named_kind_has_neighbours(self):
        # its neighbour list used to be read as a topology kind
        doc = {"clients": [{"client_id": "kind"}, {"client_id": "b"}],
               "adjacency": {"kind": ["b"]}}
        scn = scenario_from_dict(doc)
        assert scn.adjacency == {"kind": {"b"}, "b": {"kind"}}
        assert run(scn).counters["issued"] == 0

    def test_unknown_topology_kind(self):
        assert violations(p2p_doc(adjacency={"kind": "torus"})) == [
            "adjacency: unknown topology kind 'torus'"
        ]

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

    def test_fidelity_ids(self):
        # it used to escape as TypeError: unhashable type: 'list'
        assert domain_violations([{"name": ["x"], "kind": "discrete", "values": [1]}]) == [
            "domain[0].name: must be a string, got ['x']"
        ]

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
        low = f"({row.above}" if row.above is not None else f"[{row.lo}"
        text = [f"{low}, {row.hi}]" if row.hi is not None
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
            "history_burnin: must be in [3, 1000000]",
            "costs.hop: must be in [0, 1e+270]",
            "cache.default_ttl: must be > 0",
            "cache.tick_interval: must be >= 1",
        ]

    def test_null_reads_as_absent_for_optional_fields(self):
        doc = p2p_doc(adjacency=None, cell=None, cache={"default_ttl": None})
        doc["objects"]["stdv_mtbu"] = None
        scn = scenario_from_dict(doc)
        assert scn.cell is None and scn.default_ttl is None
        assert scn.objects[0].stdv_mtbu == 0.2 * 120.0

    def test_huge_integers_where_floats_go(self):
        big = 10**400
        doc = p2p_doc(objects={"count": 2, "mtbu_range": [1.0, big]})
        assert violations(doc) == [
            "objects.mtbu_range: must be two numbers, 0 < low <= high <= 1e+150",
        ]
        assert domain_violations(changed("0.values", [20, big])) == [
            "domain[0].values: must be distinct strings or finite numbers",
        ]

    def test_cost_model_lists_every_violation(self):
        # CostModel used to report only the first, as cell.cost_model: <its text>
        doc = broadcast_doc()
        doc["cell"]["cost_model"] = {"switch_slots": 0, "e_active": -1.0, "e_switch": -2}
        assert violations(doc) == [
            "cell.cost_model.switch_slots: must be >= 1",
            "cell.cost_model.e_active: must be in [0, 1e+270]",
            "cell.cost_model.e_switch: must be in [0, 1e+270]",
        ]

    @pytest.mark.parametrize("e_doze, e_active", [(2.0, 1.0), (0.5, 0.5), (0.1, 0)])
    def test_dozing_must_cost_less_than_listening(self, e_doze, e_active):
        doc = broadcast_doc()
        doc["cell"]["cost_model"] = {"e_doze": e_doze, "e_active": e_active}
        assert violations(doc) == ["cell.cost_model.e_doze: must be below e_active"]


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
        _, program = sim.plan_cell(scn, sim.cell_catalog(scn), sim.initial_rates(scn))
        assert program is not None and program.index_positions == ()


class TestInvariants:
    # a write at now + 1 lies in the next slot, after the query's
    @pytest.mark.parametrize("offset", [1, 2])
    def test_causality_violation_raises(self, monkeypatch, offset):
        resolve = p2p.InformationManager.resolve_query

        def from_the_future(self, service_id, qos, now):
            outcome = resolve(self, service_id, qos, now)
            return outcome._replace(write_time=now + offset)

        monkeypatch.setattr(p2p.InformationManager, "resolve_query", from_the_future)
        with pytest.raises(InvariantError, match="after slot"):
            run(scenario_from_dict(p2p_doc()))

    @pytest.mark.parametrize("dedicated", [False, True])
    @pytest.mark.parametrize("off", [1, -1])
    def test_aired_reader_one_slot_off_raises(self, monkeypatch, off, dedicated):
        # the first read of each shape is planned too, and the plan must agree
        doc = broadcast_doc()
        if dedicated:
            doc["cell"].update(channels=3, dedicated_index_channel=True)
        scn = scenario_from_dict(doc)
        aired = [r.query_id for r in run(scn).records if r.resolution == "broadcast"]
        build = retrieval.aired_reader

        def one_slot_off(program, cost):
            read = build(program, cost)

            def off_read(oid, t):
                total, switches, active = read(oid, t)
                return total + off, switches, active

            return off_read

        monkeypatch.setattr(retrieval, "aired_reader", one_slot_off)
        with pytest.raises(InvariantError, match=f"^query {min(aired)}: .* read as "):
            run(scn)

    def test_conservation_violation_raises(self, monkeypatch):
        # the records are the run's account: every issued query has exactly one
        scn = scenario_from_dict(p2p_doc())
        issued = run(scn).counters["issued"]
        steps = sim._p2p_steps

        def record(records, qid):
            return next(r for r in records if r.query_id == qid)

        cases = {
            "query 3 has no record": lambda records: records.remove(record(records, 3)),
            "query 5 has more than one record":
                lambda records: records.append(record(records, 5)),
            f"query {issued} was never issued":
                lambda records: records.append(records[-1]._replace(query_id=issued)),
        }
        for message, tamper in cases.items():
            def tampered(scenario, metrics, tamper=tamper):
                advance, answer = steps(scenario, metrics)

                def advance_then_tamper(slot):  # once the run ends
                    advance(slot)
                    if slot == scenario.duration_slots:
                        tamper(metrics.records)

                return advance_then_tamper, answer

            monkeypatch.setattr(sim, "_p2p_steps", tampered)
            with pytest.raises(InvariantError, match=f"issued queries: {message}$"):
                run(scn)


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
    "tick_interval": (1, 6), "switch_slots": (1, 3),
    "e_active": (0.5, 2), "e_doze": (0, 0.4), "e_switch": (0, 2),
}
# fields always drawn, so that most documents issue queries
SIZES = {"duration_slots", "count", "request_rate"}
# JSON values of every type, for a field of any kind
ANY_JSON = st.sampled_from([None, True, False, 0, 3, -1, 2.5, "x", "", [], [1], {},
                            {"k": 1}])


def in_range(row: sim.Field):
    """Values the table accepts for ``row``, run sizes kept small, and a
    number's range end: its ``hi``, or float max where it has none."""
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
    values = st.one_of(values, st.just(sys.float_info.max if row.hi is None else float(row.hi)))
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
    holds; a section ending in ``[]`` is each mapping of a list."""
    for path in sim.SCHEMA:
        nodes = [doc]
        for name in filter(None, path.removesuffix("[]").split(".")):
            nodes = [node[name] for node in nodes if isinstance(node, dict) and name in node]
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
    doc = section(
        draw, "", resolution_mode=mode, objects=objects, clients=clients,
        adjacency=adjacency, toggles=section(draw, "toggles"),
        workload=section(draw, "workload"), costs=section(draw, "costs"),
        cache=section(draw, "cache"), cell=cell,
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
        strict_json(metrics.to_json_bytes())
        metrics.to_csv_bytes()

    @settings(max_examples=300, deadline=None)
    @given(documents())
    def test_replays_the_slot_loops(self, doc):
        try:
            scn = scenario_from_dict(doc)
        except ScenarioError:
            return
        assert_replays_the_slot_loops(scn)


def assert_replays_the_slot_loops(scn: sim.Scenario) -> None:
    """``run`` gives what the engine's old loops over every slot gave."""
    got, want = run(scn), oracles.run_slot_loops(scn)
    assert got.records == want.records
    # equal tuples of another type would also compare equal
    assert all(type(r) is sim.QueryRecord for r in got.records)
    assert got.counters == want.counters
    assert got.per_client_energy == want.per_client_energy
    assert got.plan == want.plan


def sparse_ttl_doc(duration_slots=10**6, **cache):
    """Ten TTL-requery clients asking about once per 1,000 slots each, of
    sources that write about once per 20,000 slots."""
    doc = p2p_doc(1, duration_slots=duration_slots)
    doc["objects"] = {"count": 40, "mtbu": 20_000.0, "stdv_mtbu": 4_000.0}
    doc["clients"] = {"count": 10, "cache_capacity": 8, "policy": "ttl_requery",
                      "default_qos": 0.3, "request_rate": 0.001}
    doc["cache"] = cache
    return doc


def sparse_broadcast_doc(duration_slots=10**6):
    """The same objects and demand in a cell replanned every 1,000 slots."""
    doc = broadcast_doc(1, duration_slots=duration_slots)
    doc["objects"] = {"count": 40, "mtbu": 20_000.0, "stdv_mtbu": 4_000.0}
    doc["clients"].update(count=10, request_rate=0.001)
    doc["cell"]["replan_interval"] = 1_000
    return doc


def with_cache(doc: dict, **cache) -> dict:
    """``doc`` with its ``cache`` section's keys set; None drops a key."""
    doc["cache"] = {k: v for k, v in {**doc.get("cache", {}), **cache}.items()
                    if v is not None}
    return doc


def with_replan(doc: dict, interval: int) -> dict:
    doc["cell"]["replan_interval"] = interval
    return doc


def on_and_off_air_doc(seed: int) -> dict:
    """A cell whose replans take it on or off air (see
    ``test_broadcast_slots_count_the_programs_on_air``)."""
    doc = broadcast_doc(seed)
    doc["objects"]["count"] = 12
    doc["clients"].update(count=4, request_rate=0.02)
    doc["cell"].update(total_bandwidth=4.0, threshold=0.02, replan_interval=40)
    return doc


# fractional, integral, infinite and absent TTLs on every tick grid; replan
# intervals of 0 or less, of every slot and of a few; and runs longer than
# 10**5 slots in which almost every slot is idle
SLOT_LOOP_CASES = {
    **{f"mixed-ttl-{ttl}-tick-{tick}": with_cache(mixed_doc(), default_ttl=ttl,
                                                  tick_interval=tick)
       for ttl in (0.5, 1.0, 7.25, 60.0, math.inf, None) for tick in (1, 2, 13)},
    **{f"dedicated-replan-{interval}": with_replan(dedicated_index_doc(), interval)
       for interval in (-1, 0, 1, 7, 100)},
    "distributed-ttl": distributed_ttl_doc(),
    **{f"on-and-off-air-{seed}": on_and_off_air_doc(seed) for seed in (1, 2)},
    "sparse-ttl": sparse_ttl_doc(200_000, default_ttl=37.5, tick_interval=3),
    "sparse-broadcast": sparse_broadcast_doc(200_000),
}


class TestOneLoop:
    @pytest.mark.parametrize("name", sorted(SLOT_LOOP_CASES))
    def test_replays_the_slot_loops(self, name):
        assert_replays_the_slot_loops(scenario_from_dict(SLOT_LOOP_CASES[name]))

    @pytest.mark.parametrize("ttl", [600.0, math.inf, None])
    def test_ticks_follow_the_events_not_the_slots(self, monkeypatch, ttl):
        """A tick is made only at a slot from a cache's next expiry on, so it
        either acts or finds the cache's oldest copy gone. An action is a
        requery here, as every source is reachable and the policy requeries,
        and only an answer's insert can displace an oldest copy, at most one
        per query: ticks <= requeries + drops + queries. Ticking every cache
        at every slot would make 10 * 10**6 calls."""
        calls = []
        tick = sim.ClientCache.tick
        monkeypatch.setattr(sim.ClientCache, "tick",
                            lambda cache, now: calls.append(now) or tick(cache, now))
        counters = run(scenario_from_dict(sparse_ttl_doc(default_ttl=ttl))).counters
        assert 9_000 < counters["issued"] < 11_000
        bound = counters["issued"] + counters["requeries"] + counters["ttl_drops"]
        assert len(calls) <= bound
        if ttl is None or ttl == math.inf:
            assert calls == []
        else:
            assert counters["requeries"] > 10**5 and bound < 2 * 10**5

    def test_plans_follow_the_replan_slots(self, monkeypatch):
        calls = []
        plan_cell = sim.plan_cell
        monkeypatch.setattr(sim, "plan_cell",
                            lambda *args: calls.append(args) or plan_cell(*args))
        counters = run(scenario_from_dict(sparse_broadcast_doc())).counters
        assert 9_000 < counters["issued"] < 11_000
        assert len(calls) == 1 + len(range(1_000, 10**6, 1_000))
