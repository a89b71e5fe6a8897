"""aircell benchmark: seeded workloads, correctness gate, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload p2p_lru --seed 1 --seconds 20 --trace 0

It imports ``aircell`` from ``src/`` of the same checkout and exits with a
nonzero code, printing no result, when those sources are missing; when the
workload raises before a repetition completes, it prints a result with
``correct`` false and exits nonzero. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the metric names and units are the ones
``BENCHMARK.json`` declares (``end_to_end`` with ``--trace 0``,
``per_layer`` with ``--trace 1``). Progress and diagnostics go to standard
error. One process, one thread; the only child processes are the
sequential import-time probes of the set-up measurement.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads
from hostspeed import HOST_KERNEL_REF_S, HostProbe, bracket_kernel_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 9
MIN_REPS = 3
MIN_TRACED_REPS = 1
# Run in a fresh interpreter: ``hostspeed`` loads only small stdlib modules,
# so the import of aircell is measured whole, between two kernel brackets.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import hostspeed; "
    "before = hostspeed.bracket_kernel_s(); t = time.perf_counter(); "
    "import aircell; took = time.perf_counter() - t; "
    "print(took, before, hostspeed.bracket_kernel_s())"
)


def log(*parts) -> None:
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def import_aircell():
    package = SRC / "aircell"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no aircell sources at {package}")
    sys.path.insert(0, str(SRC))
    import aircell

    if Path(aircell.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported aircell from {aircell.__file__}, not {package}")
    return aircell


@dataclass
class Rep:
    """One repetition of a workload and what its outputs were checked against."""

    wall_s: float  # the whole repetition, what tracing overhead compares
    timed_s: float  # the part queries_per_s divides by
    queries: int
    digest: str
    model: dict[str, float]
    attempted: int = 1
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    duration_slots: int = 0
    host_s: float = math.nan  # mean ``host_kernel`` seconds during this repetition

    def scale(self) -> float:
        """Factor from this repetition's seconds to reference-host seconds."""
        return HOST_KERNEL_REF_S / self.host_s


def engine_rep(aircell, doc: dict, clock) -> Rep:
    """``aircell run`` for one seed without file IO: parse, run, serialize."""
    sim = aircell.sim
    t0 = clock()
    scenario = sim.scenario_from_dict(doc)
    t1 = clock()
    metrics = sim.run(scenario)
    blob = metrics.to_json_bytes()
    t2 = clock()
    s = metrics.summary()
    problems = checks.check_engine(metrics)
    return Rep(
        wall_s=t2 - t0,
        timed_s=t2 - t1,
        queries=int(s["issued"]),
        digest=hashlib.sha256(blob).hexdigest(),
        model={
            "mean_latency_slots": s["mean_latency_slots"],
            "model.source_load_share": s["source_load"] / s["issued"],
            "model.mean_staleness_slots": s["mean_staleness_slots"],
            "model.energy_per_query": s["total_energy"] / s["issued"],
            "model.tsp_excess_pct": 0.0,
        },
        problems=problems,
        failed=int(bool(problems)),
        duration_slots=scenario.duration_slots,
    )


PLANNERS = ("row_scan", "next_object_access", "tsp_order")


def planner_rep(aircell, inputs: workloads.PlannerInputs, clock) -> Rep:
    """Plan every retrieval request with every planner, then every fidelity selection."""
    retrieval, fidelity = aircell.retrieval, aircell.fidelity
    cost = inputs.cost
    suppliers = [s.supplier for s in inputs.suppliers]
    t0 = clock()
    plans = []
    for request in inputs.requests:
        by_planner = {name: getattr(retrieval, name)(request, cost) for name in PLANNERS}
        if len(request.desired) <= workloads.BRUTE_FORCE_MAX_K:
            by_planner["brute_force"] = retrieval.brute_force(request, cost)
        plans.append(by_planner)
    models = {s.supplier.supplier_id: fidelity.fit_models(s.store) for s in inputs.suppliers}
    selections = []
    for limits in inputs.limits:
        feasible = {
            sid: fidelity.feasible_configs(
                fitted, inputs.domain, limits, workloads.GRID_POINTS)
            for sid, fitted in models.items()
        }
        selections.append(fidelity.maximize_utility(
            suppliers, inputs.utilities, workloads.WEIGHTS, feasible))
    t1 = clock()

    problems, failed = [], 0
    for by_planner in plans:
        found = checks.check_request(by_planner)
        problems += found
        failed += bool(found)
    for limits, result in zip(inputs.limits, selections):
        found = checks.check_selection(
            result, workloads.feasible_utilities(inputs, models, limits))
        problems += found
        failed += bool(found)

    record = {
        "plans": [
            {name: retrieval.plan_as_dict(plan) for name, plan in sorted(p.items())}
            for p in plans
        ],
        "selections": [
            [r.supplier_id, [float(v) if not isinstance(v, str) else v for v in r.config],
             r.utility, list(r.evaluated_suppliers)]
            for r in selections
        ],
    }
    blob = json.dumps(record, sort_keys=True).encode()
    tsp = [p["tsp_order"] for p in plans]
    excess = [
        100.0 * (p["tsp_order"].total_slots - p["brute_force"].total_slots)
        / p["brute_force"].total_slots
        for p in plans if "brute_force" in p
    ]
    queries = len(plans) + len(selections)
    return Rep(
        wall_s=t1 - t0,
        timed_s=t1 - t0,
        queries=queries,
        digest=hashlib.sha256(blob).hexdigest(),
        model={
            "mean_latency_slots": statistics.fmean(p.total_slots for p in tsp),
            "model.source_load_share": 0.0,
            "model.mean_staleness_slots": 0.0,
            "model.energy_per_query": statistics.fmean(
                retrieval.account(p, cost)["energy"] for p in tsp),
            "model.tsp_excess_pct": statistics.fmean(excess),
        },
        attempted=queries,
        problems=problems,
        failed=failed,
    )


class Workload:
    """Inputs and one repetition of a named workload at one seed."""

    def __init__(self, aircell, name: str):
        self.aircell = aircell
        self.name = name

    def inputs(self, seed: int):
        if self.name in workloads.ENGINE_WORKLOADS:
            doc = workloads.SCENARIOS[self.name](seed)
            self.aircell.sim.scenario_from_dict(doc)  # validation is part of set-up
            return doc
        return workloads.planner_inputs(seed, self.aircell)

    def rep(self, inputs, clock=perf_counter) -> Rep:
        if self.name in workloads.ENGINE_WORKLOADS:
            return engine_rep(self.aircell, inputs, clock)
        return planner_rep(self.aircell, inputs, clock)


def import_seconds() -> tuple[float, float]:
    """Seconds to import aircell (numpy included) in a fresh interpreter, and
    the mean ``host_kernel`` seconds just before and after it there."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(Path(__file__).parent), str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    took, before, after = map(float, done.stdout.split())
    return took, 0.5 * (before + after)


def setup_seconds(workload: Workload, seed: int) -> float:
    """Median over fresh imports plus input generation and validation.

    Each sample is rescaled to the reference host by the kernel brackets
    of its import, which run in the same interpreter just before and after.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        imported, kernel_s = import_seconds()
        t0 = perf_counter()
        workload.inputs(seed)
        took = imported + perf_counter() - t0
        samples.append(took / kernel_s * HOST_KERNEL_REF_S)
    return statistics.median(samples)


class Gate:
    """Counts checked units and failures across every repetition of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, rep: Rep, expected_digest: str | None, label: str) -> None:
        problems = list(rep.problems)
        failed = rep.failed
        if expected_digest is not None and rep.digest != expected_digest:
            problems.append(f"digest {rep.digest} != expected {expected_digest}")
            failed = max(failed, 1)
        for problem in problems:
            log(f"{label}: {problem}")
        self.attempted += rep.attempted
        self.failed += failed

    def crash(self, label: str) -> None:
        log(f"{label}: raised")
        traceback.print_exc(file=sys.stderr)
        self.attempted += 1
        self.failed += 1


def repeat(workload: Workload, inputs, seconds: float, minimum: int, gate: Gate,
           label: str, expected: str | None, probed: bool,
           tracer_factory=None) -> list:
    """At least ``minimum`` repetitions, then more while the next one, taking
    as long as the last, would end within ``seconds``.

    ``probed`` repetitions are timed on a ``HostProbe`` clock and rescaled
    by the kernel samples taken during them; the others by kernels run just
    before and after. Returns (rep, tracer or None) pairs; stops at the
    first exception.
    """
    done = []
    start = lap_start = perf_counter()
    lap = 0.0
    gc.collect()
    before = math.nan if probed else bracket_kernel_s()
    while len(done) < minimum or perf_counter() - start + lap <= seconds:
        tracer = None
        try:
            if probed:
                with HostProbe() as probe:
                    rep = workload.rep(inputs, probe.clock)
                rep.host_s = probe.mean_kernel_s()
            else:
                if tracer_factory is None:
                    rep = workload.rep(inputs)
                else:
                    with tracer_factory() as tracer:
                        rep = workload.rep(inputs)
                after = bracket_kernel_s()
                rep.host_s = 0.5 * (before + after)
                before = after
        except Exception:
            gate.crash(label)
            break
        gc.collect()
        expected = expected or rep.digest  # later repetitions must reproduce the first
        gate.record(rep, expected, label)
        done.append((rep, tracer))
        lap, lap_start = perf_counter() - lap_start, perf_counter()
    return done


def verify_default_seed(workload: Workload, seed: int, gate: Gate) -> None:
    """Check the pinned digest once per run, whatever seed is measured."""
    pinned_seed = checks.default_seed()
    if seed == pinned_seed:
        return  # the measured repetitions are checked against the pin
    try:
        rep = workload.rep(workload.inputs(pinned_seed))
    except Exception:
        gate.crash(f"seed {pinned_seed}")
        return
    gate.record(rep, checks.pinned_digest(workload.name, pinned_seed),
                f"seed {pinned_seed}")


def untraced_metrics(reps: list[Rep], setup_s: float) -> dict[str, float]:
    return {
        "queries_per_s": reps[0].queries / statistics.median(
            r.timed_s * r.scale() for r in reps),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_latency_slots": reps[0].model["mean_latency_slots"],
    }


def traced_metrics(plain: list[Rep], traced: list) -> dict[str, float]:
    """Per-layer metrics, every time in reference-host seconds like the rest."""
    per_rep = []
    for rep, tracer in traced:
        scale = rep.scale()
        values = tracing.layer_metrics(tracer, rep.duration_slots, scale)
        attributed = sum(tracer.layer_self_s().values())
        outside = rep.wall_s - tracer.root_s[0]
        values["trace.wall_s"] = rep.wall_s * scale
        values["trace.unattributed_s"] = outside * scale
        values["trace.wrapper_s"] = (rep.wall_s - outside - attributed) * scale
        per_rep.append(values)
    out = {key: statistics.median(v[key] for v in per_rep) for key in per_rep[0]}
    out["trace.untraced_wall_s"] = statistics.median(r.wall_s * r.scale() for r in plain)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["trace.residual_s"] = out["trace.overhead_s"] - out["trace.wrapper_s"]
    out["trace.host_kernel_s"] = statistics.median(r.host_s for r in plain)
    out.update(traced[0][0].model)
    return out


def report_layers(values: dict[str, float]) -> None:
    wall = values["trace.wall_s"]
    log(f"traced wall {wall:.3f} s, untraced {values['trace.untraced_wall_s']:.3f} s, "
        f"overhead {values['trace.overhead_s']:.3f} s, of which the calibrated "
        f"wrapper cost {values['trace.wrapper_s']:.3f} s; "
        f"outside any span {values['trace.unattributed_s']:.6f} s")
    untraced = values["trace.untraced_wall_s"]
    shares = sorted(
        ((values[f"layer.{layer}.self_s"], layer) for layer in tracing.LAYERS),
        reverse=True,
    )
    for self_s, layer in shares:
        log(f"  {layer:<15} self {self_s:8.3f} s  {100.0 * self_s / untraced:5.1f} % "
            "of the untraced wall")


def emit(declared: list[dict], values: dict[str, float], gate: Gate) -> None:
    """The result line; a metric without a value (the run raised) reads 0."""
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    aircell = import_aircell()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    seed = checks.default_seed() if args.seed is None else args.seed
    workload = Workload(aircell, args.workload)
    expected = checks.pinned_digest(workload.name, seed)
    gate = Gate()
    label = f"seed {seed}"

    def failed() -> int:
        """A result that counts the failure, then a nonzero exit."""
        verify_default_seed(workload, seed, gate)
        emit(declared, {"setup_s": setup_s}, gate)
        return 1

    setup_s = 0.0 if args.trace else setup_seconds(workload, seed)
    inputs = workload.inputs(seed)

    if not args.trace:
        reps = [r for r, _ in repeat(workload, inputs, args.seconds, MIN_REPS,
                                     gate, label, expected, probed=True)]
        if not reps:
            return failed()
        # sampled before the pinned-seed check adds its own inputs and outputs
        values = untraced_metrics(reps, setup_s)
        verify_default_seed(workload, seed, gate)
        timed = sorted(r.timed_s for r in reps)
        host = sorted(r.host_s for r in reps)
        log(f"{args.workload}: {len(reps)} repetitions of {reps[0].queries} queries; "
            f"timed s min {timed[0]:.3f} median {statistics.median(timed):.3f} "
            f"max {timed[-1]:.3f}; host kernel s min {host[0]:.4f} "
            f"median {statistics.median(host):.4f} max {host[-1]:.4f}")
        emit(declared, values, gate)
        return 0

    # Both sides of the tracing overhead are rescaled the same way, by
    # kernels outside the repetitions.
    plain = [r for r, _ in repeat(workload, inputs, args.seconds / 2, MIN_REPS,
                                  gate, label, expected, probed=False)]
    if not plain:
        return failed()
    traced = repeat(workload, inputs, args.seconds / 2, MIN_TRACED_REPS, gate,
                    label + " traced", plain[0].digest, probed=False,
                    tracer_factory=lambda: tracing.Tracer(aircell))
    if not traced:
        return failed()
    verify_default_seed(workload, seed, gate)
    values = traced_metrics(plain, traced)
    report_layers(values)
    rep, tracer = traced[-1]
    tracer.write(TRACE_DIR / f"{args.workload}-seed{seed}.trace.json",
                 min((s[2] for s in tracer.spans), default=0.0))
    emit(declared, values, gate)
    return 0


if __name__ == "__main__":
    sys.exit(main())
