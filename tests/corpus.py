"""The scenario documents and sample logs that CI and the reachability gate
run, each built once.

``python tests/corpus.py DIR`` writes each document to ``DIR/NAME.json``:
the README's sample log and scenario as the README's own text, and every
other document as ``json.dumps`` writes it. A sample log's name ends in
``samples``; most scenarios are the README's cell with one thing changed.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# the documents ``aircell plan`` refuses with one error line and exit 2: a
# cell with no objects to plan, or with more channels or bandwidth than the
# reader allows
REFUSED = ("no_objects", "too_many_channels", "too_much_bandwidth")


def readme_blocks() -> list[str]:
    """The text of every ```json block of the README."""
    return re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)


def documents() -> dict[str, str | dict]:
    """Every document by name: the README's two as text, the rest as dicts."""
    blocks = readme_blocks()
    text = next(b for b in blocks if '"p2p"' in b)
    docs: dict[str, str | dict] = {
        "samples": next(b for b in blocks if '"samples"' in b), "scenario": text}
    scenario = json.loads(text)
    # the same cell down every tier of the chain: a client per cache
    # policy, two providers, overhearing, a TTL and an unreachable source
    policies = ["lru", "acqf", "cqf", "ttl_requery", "ttl_drop", "lru"]
    providers = {0: ["obj1"], 3: ["obj2"]}
    docs["p2p_tiers"] = dict(
        scenario,
        objects=[dict({"object_id": f"obj{i}", "mtbu": 120.0, "stdv_mtbu": 25.0},
                      **({"reachable": False} if i == 9 else {}))
                 for i in range(10)],
        clients=[{"client_id": f"client{i}", "policy": policy, "cache_capacity": 4,
                  "default_qos": 0.3, "request_rate": 0.08,
                  "providers": providers.get(i, [])}
                 for i, policy in enumerate(policies)],
        toggles={"p2p": True, "caching": True, "overhearing": True},
        cache={"default_ttl": 40.0})
    # the same cell with per-object QoS overrides on every other client,
    # one of them -0.0, which must be written as such
    docs["qos_overrides"] = dict(scenario, clients=[
        dict({"client_id": f"client{i}", "cache_capacity": 6, "default_qos": 0.3,
              "request_rate": 0.08}, **({"qos": {"obj0": 0.9, "obj3": -0.0}} if i % 2 == 0 else {}))
        for i in range(6)])
    # the same cell with default QoS 0.0 and -0.0 on alternate clients and no
    # overrides: equal values that write unlike, so the column keeps both
    docs["signed_zero_qos"] = dict(scenario, clients=[
        {"client_id": f"client{i}", "cache_capacity": 6, "default_qos": -0.0 if i % 2 else 0.0,
         "request_rate": 0.08}
        for i in range(6)])
    # one run per cache policy with a TTL set, and clients that register
    # providers
    for policy in ("lru", "ttl_drop", "ttl_requery", "cqf", "acqf"):
        docs[policy] = dict(scenario, clients=dict(scenario["clients"], policy=policy),
                            cache={"default_ttl": 60.0})
    docs["providers"] = dict(scenario, clients=[
        {"client_id": "a", "request_rate": 0.1, "providers": ["obj0", "obj1"]},
        {"client_id": "b", "request_rate": 0.1}])
    # the same cell served from the air and by batched multicasts, replanned
    # as it runs, so that some seeds go on or off air
    broadcast = docs["broadcast"] = dict(
        scenario, resolution_mode="broadcast",
        cell={"channels": 2, "total_bandwidth": 10.0, "threshold": 0.1,
              "batching_window": 4.0, "replan_interval": 50})
    cell = broadcast["cell"]
    # the same cell replanned before every slot: a program comes into
    # force at nearly every stop, so a fixed cost per program would show
    docs["tiny_replan"] = dict(broadcast, cell=dict(cell, replan_interval=1))
    # the same cell with the default threshold, inf: "no limit"
    no_limit = docs["no_limit"] = dict(
        broadcast, cell={k: v for k, v in cell.items() if k != "threshold"})
    # the same cell with its index on a channel of its own
    docs["dedicated"] = dict(broadcast, cell=dict(cell, channels=3,
                                                  dedicated_index_channel=True))
    # the same cell with too little bandwidth for any stable partition,
    # and with more than the reader allows
    for name, bandwidth in (("unstable", 0.5), ("too_much_bandwidth", 1e308)):
        docs[name] = dict(broadcast, cell=dict(cell, total_bandwidth=bandwidth))
    # a million slots with about ten thousand queries: the run visits
    # only its busy slots, its TTL refreshes and its replans
    sparse = docs["sparse_ttl"] = dict(
        scenario, duration_slots=1000000,
        objects={"count": 40, "mtbu": 20000.0, "stdv_mtbu": 4000.0},
        clients={"count": 10, "cache_capacity": 8, "policy": "ttl_requery",
                 "default_qos": 0.3, "request_rate": 0.001},
        cache={"default_ttl": 600.0})
    # the same with sources that write about every 500 slots: each of
    # its ~10^5 refreshes snapshots a history of up to 2,000 intervals,
    # and a snapshot folds its spread only if a query judges the copy
    docs["sparse_fold"] = dict(sparse, objects={"count": 40, "mtbu": 500.0, "stdv_mtbu": 100.0})
    docs["sparse_air"] = dict(sparse, resolution_mode="broadcast",
                              cell=dict(cell, replan_interval=1000))
    # 2*10^5 objects with no threshold, replanned every 250 slots: most
    # objects go unasked, and a plan is linear in the object count
    large_air = docs["large_air"] = dict(
        no_limit, duration_slots=1000, objects=dict(no_limit["objects"], count=200000),
        cell=dict(no_limit["cell"], replan_interval=250))
    # the same with its index on a channel of its own: every aired read
    # of 2*10^5 objects switches channels
    docs["large_air_dedicated"] = dict(
        large_air, cell=dict(large_air["cell"], channels=3, dedicated_index_channel=True))
    # forty TTL readers spread around a ring of 2,000 clients that never
    # ask: a run's cost per query must not grow with the idle caches, and
    # those that overhear a copy drop it when its TTL runs out
    docs["idle_ttl"] = dict(
        scenario, duration_slots=1000, objects={"count": 200, "mtbu": 100.0},
        clients=[{"client_id": f"client{i:04d}", "cache_capacity": 8,
                  **({"policy": "ttl_requery", "default_qos": 0.3, "request_rate": 0.2}
                     if i % 51 == 0 else {"policy": "ttl_drop"})}
                 for i in range(40 * 51)],
        toggles={"p2p": True, "caching": True, "overhearing": True},
        cache={"default_ttl": 50.0})
    docs["no_objects"] = {"seed": 1, "duration_slots": 10, "cell": {"channels": 1}}
    docs["too_many_channels"] = {"seed": 1, "duration_slots": 10,
                                 "objects": {"count": 2, "mtbu": 50.0},
                                 "cell": {"channels": 1000001}}
    # a sample log with a numeric discrete parameter
    docs["numeric_samples"] = {
        "domain": [{"name": "level", "kind": "discrete", "values": [1, 2, 3]}],
        "samples": [{"config": {"level": level}, "consumption": {"cpu": 2.0 * level}}
                    for level in (1, 2, 3)]}
    return docs


def write(directory: str | Path) -> None:
    """Write every document to ``directory/NAME.json``."""
    for name, doc in documents().items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (Path(directory) / f"{name}.json").write_text(text)


if __name__ == "__main__":
    write(sys.argv[1])
