"""Correctness gate: what every repetition's outputs must satisfy.

Each function returns the list of problems it found; an empty list passes.
"""

from __future__ import annotations

import json
from pathlib import Path

PINS = Path(__file__).with_name("digests.json")
CACHED = ("local_cache", "neighbor_cache")


def pinned_digest(workload: str, seed: int) -> str | None:
    """The SHA-256 pinned for ``workload`` at the default seed, else None."""
    pins = json.loads(PINS.read_text())
    if seed != pins["default_seed"]:
        return None
    return pins["sha256"][workload]


def default_seed() -> int:
    return json.loads(PINS.read_text())["default_seed"]


def check_engine(metrics) -> list[str]:
    """Conservation, and no cached answer below its querier's QoS."""
    problems = []
    c = metrics.counters
    if c["answered"] + c["unresolved"] != c["issued"]:
        problems.append(
            f"answered {c['answered']} + unresolved {c['unresolved']}"
            f" != issued {c['issued']}"
        )
    below = sum(
        1 for r in metrics.records if r.resolution in CACHED and r.p_nm < r.qos
    )
    if below:
        problems.append(f"{below} cached answers with p_nm < qos")
    return problems


def check_request(plans: dict) -> list[str]:
    """Heuristics never beat the exhaustive optimum; 2-opt never loses to greedy."""
    problems = []
    tsp, greedy = plans["tsp_order"].total_slots, plans["next_object_access"].total_slots
    if tsp > greedy:
        problems.append(f"tsp_order {tsp} slots > next_object_access {greedy}")
    best = plans.get("brute_force")
    if best is not None:
        for name, plan in plans.items():
            if plan.total_slots < best.total_slots:
                problems.append(
                    f"{name} {plan.total_slots} slots < brute_force {best.total_slots}"
                )
    return problems


def check_selection(result, candidates: list) -> list[str]:
    """The selector's choice is an argmax of the exhaustive feasible grid."""
    if not candidates:
        return ["oracle found no feasible configuration"]
    top = max(u for u, _, _ in candidates)
    tolerance = 1e-12 * max(1.0, abs(top))
    chosen = (result.supplier_id, tuple(result.config))
    winners = {
        (sid, tuple(config)) for u, sid, config in candidates if u >= top - tolerance
    }
    problems = []
    if abs(result.utility - top) > tolerance:
        problems.append(f"utility {result.utility!r} != exhaustive maximum {top!r}")
    if chosen not in winners:
        problems.append(f"choice {chosen} is not an exhaustive argmax")
    return problems
