"""The benchmark's tracer against the package: every name it wraps exists,
and tracing a run changes none of its bytes.

``perfbench/tracing.py`` is read and executed here, never imported or
written, so a renamed method fails this suite, not only the benchmark.
"""

import hashlib
import types
from pathlib import Path

import pytest

import aircell
from aircell import sim

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def small_p2p_run() -> bytes:
    """A p2p run that reads sources through every tier and TTL requeries."""
    doc = {
        "seed": 4, "duration_slots": 300,
        "objects": {"count": 8, "mtbu": 40.0, "stdv_mtbu": 10.0},
        "clients": [
            {"client_id": f"c{i}", "cache_capacity": 3, "policy": policy,
             "request_rate": 0.1, "providers": ["obj1"] if i == 0 else []}
            for i, policy in enumerate(["lru", "ttl_requery", "acqf", "cqf"])
        ],
        "adjacency": {"kind": "ring", "degree": 2},
        "resolution_mode": "p2p",
        "cache": {"default_ttl": 20.0, "tick_interval": 2},
    }
    return sim.run(sim.scenario_from_dict(doc)).to_json_bytes()


class TestTracedNames:
    def test_every_target_resolves(self, tracing):
        missing = []
        for layer, owner, attr, name, _, _ in tracing.TARGETS:
            holder = getattr(aircell, layer)
            if owner is not None:
                holder = vars(holder).get(owner)
                # the tracer patches the class's own attribute, not an inherited one
                found = holder is not None and attr in vars(holder)
            else:
                found = callable(getattr(holder, attr, None))
            if not found:
                missing.append(f"{name}: {layer}.{owner or '-'}.{attr}")
        assert missing == []

    def test_a_traced_run_keeps_its_bytes(self, tracing):
        plain = small_p2p_run()
        before = {attr: vars(aircell.freshness.SourceObject)[attr] for attr in ("read", "write")}
        with tracing.Tracer(aircell) as tracer:
            traced = small_p2p_run()
        assert hashlib.sha256(traced).hexdigest() == hashlib.sha256(plain).hexdigest()
        # the wrappers ran, and exit put the originals back
        for name in ("freshness.read", "freshness.write", "p2p.resolve", "cache.tick"):
            assert tracer.totals[name][0] > 0, name
        assert {attr: vars(aircell.freshness.SourceObject)[attr] for attr in before} == before
        assert small_p2p_run() == plain


def small_broadcast_run() -> sim.Metrics:
    """A broadcast run that replans every 40 slots and reads the air."""
    doc = {
        "seed": 5, "duration_slots": 600, "resolution_mode": "broadcast",
        "objects": {"count": 30, "mtbu": 100.0},
        "clients": {"count": 4, "request_rate": 0.1},
        "cell": {"channels": 2, "m": 2, "total_bandwidth": 5.0, "threshold": 0.3,
                 "batching_window": 2.0, "replan_interval": 40},
    }
    return sim.run(sim.scenario_from_dict(doc))


def spy_on_readers(monkeypatch) -> list[set[int]]:
    """Record, for each aired reader the engine builds, the phases its
    reads were asked at."""
    readers = []
    build = aircell.retrieval.aired_reader

    def spied(program, cost):
        read = build(program, cost)
        phases: set[int] = set()
        readers.append(phases)

        def spied_read(oid, t):
            phases.add(t % program.cycle_len_slots)
            return read(oid, t)

        return spied_read

    monkeypatch.setattr(aircell.retrieval, "aired_reader", spied)
    return readers


def read_counts(readers, metrics: sim.Metrics) -> tuple[int, int, int]:
    """The aired reads of a run, the index-wait table entries its readers
    filled (one per phase asked of each), and the read shapes it costed.
    A shape is ``(total_slots, switches, active_slots)``; within a cell
    only the first varies, and it is the record's latency."""
    aired = [r.latency_slots for r in metrics.records if r.resolution == "broadcast"]
    return len(aired), sum(map(len, readers)), len(set(aired))


class TestTracedBroadcast:
    def test_every_plan_and_aired_read_is_a_span(self, tracing, monkeypatch):
        # a planner or read path that routes around a traced name, or around
        # the aired reader's table, fails here
        plain = small_broadcast_run().to_json_bytes()
        readers = spy_on_readers(monkeypatch)
        with tracing.Tracer(aircell) as tracer:
            traced = small_broadcast_run()
        assert traced.to_json_bytes() == plain
        plans = 1 + len(range(40, 600, 40))  # at slot 0, then every 40 slots
        assert tracer.totals["broadcast_plan.partition"][0] == plans
        aired, fills, shapes = read_counts(readers, traced)
        assert aired > 0 and traced.counters["on_demand_responses"] > 0
        # the table saves work: phases recur within a program's reads
        assert shapes < fills < aired
        # the index rule is asked once per phase of each program, and once
        # more by the plan that checks each new shape
        assert tracer.totals["air_schedule.next_index_read_end"][0] == fills + shapes


class TestEngineReachesTracedNames:
    """Each step the engine repeats is the traced public function itself."""

    def test_full_scored_caches_call_score(self, tracing):
        with tracing.Tracer(aircell) as tracer:
            small_p2p_run()
        assert tracer.totals["cache.score"][0] > 0

    def test_plans_split_and_aired_shapes_simulate_an_order(self, tracing, monkeypatch):
        readers = spy_on_readers(monkeypatch)
        with tracing.Tracer(aircell) as tracer:
            traced = small_broadcast_run()
        plans = tracer.totals["broadcast_plan.partition"][0]
        assert plans > 0
        assert tracer.totals["broadcast_plan.split"][0] >= plans
        aired, _, shapes = read_counts(readers, traced)
        assert 0 < shapes < aired
        # each read shape is planned once, to cost it and check the reader
        assert tracer.totals["retrieval.simulate_order"][0] == shapes
