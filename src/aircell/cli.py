"""Command-line front end: run scenarios, sweep seeds, inspect plans.

Subcommands:
  run           execute a scenario over one or more seeds, emit metrics
  compare       per-metric deltas between two run summaries
  dump-program  print the broadcast slot table of a scenario's cell
  fit           fit per-resource consumption models from a sample log
  plan          report the published/on-demand partition for a scenario
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import air_schedule, fidelity
from .sim import (
    SCHEMA_ID,
    Metrics,
    Scenario,
    ScenarioError,
    initial_rates,
    plan_cell,
    plan_summary,
    read_sample_log,
    run,
    scenario_from_dict,
)


def parse_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file; raises with every violation listed."""
    p = Path(path)
    if not p.exists():
        raise ScenarioError([f"{p}: no such file"])
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ScenarioError([f"{p}: invalid JSON ({e})"]) from e
    return scenario_from_dict(data)


def _with_seed(scenario: Scenario, seed: int) -> Scenario:
    """The scenario under another master seed. Object parameters drawn from
    an ``mtbu_range`` keep the values of the file's seed: a seed sweep varies
    the workload and the updates over one fixed set of objects."""
    return dataclasses.replace(scenario, seed=seed)


# The most seeds one ``run`` may sweep.
_MAX_SEEDS = 10**6


def _parse_seeds(text: str) -> list[int]:
    """The seeds of ``--seeds``: comma-separated seeds and ``lo..hi`` ranges.

    Their count is checked from each range's ends before any list is built.
    """
    bounds: list[tuple[int, int]] = []
    for part in filter(None, map(str.strip, text.split(","))):
        lo, dots, hi = part.partition("..")
        try:
            bounds.append((int(lo), int(hi if dots else lo)))
        except ValueError:
            raise ValueError(f"--seeds: {part!r} is not a seed or a lo..hi range") from None
    count = sum(max(hi - lo + 1, 0) for lo, hi in bounds)
    if not count:
        raise ValueError("at least one seed is required")
    if count > _MAX_SEEDS:
        raise ValueError(f"--seeds: {count} seeds, more than {_MAX_SEEDS}")
    lowest = min(lo for lo, hi in bounds if lo <= hi)
    if lowest < 0:
        raise ValueError(f"seeds must be >= 0, got {lowest}")
    return [seed for lo, hi in bounds for seed in range(lo, hi + 1)]


def _run_one(args: tuple[Scenario, int]) -> tuple[int, Metrics]:
    scenario, seed = args
    return seed, run(_with_seed(scenario, seed))


def aggregate_summaries(per_seed: dict[int, dict[str, float]]) -> dict:
    """Mean and population stdev of every metric across seeds."""
    metrics: dict[str, dict[str, float]] = {}
    keys = sorted({k for s in per_seed.values() for k in s})
    for key in keys:
        values = [per_seed[seed][key] for seed in sorted(per_seed)]
        metrics[key] = {
            "mean": statistics.fmean(values),
            "stdev": statistics.pstdev(values),
        }
    return {
        "schema_id": SCHEMA_ID,
        "seeds": sorted(per_seed),
        "metrics": metrics,
    }


def cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = parse_scenario(args.scenario)
        seeds = _parse_seeds(args.seeds)
    except (ScenarioError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".writable"
        probe.write_text("")
        probe.unlink()
    except OSError as e:
        print(f"error: output directory not writable: {e}", file=sys.stderr)
        return 2

    jobs = [(scenario, seed) for seed in seeds]
    results: dict[int, Metrics] = {}
    failures: list[str] = []
    # the pool starts all its workers at the first submit
    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_one, job): job[1] for job in jobs}
            for future, seed in futures.items():
                try:
                    _, metrics = future.result()
                    results[seed] = metrics
                except Exception as e:  # label partial output, keep going
                    failures.append(f"seed {seed}: {e}")
    else:
        for job in jobs:
            try:
                seed, metrics = _run_one(job)
                results[seed] = metrics
            except Exception as e:
                failures.append(f"seed {job[1]}: {e}")

    for seed in sorted(results):
        metrics = results[seed]
        if args.format == "csv":
            (out / f"metrics_{seed}.csv").write_bytes(metrics.to_csv_bytes())
        else:
            (out / f"metrics_{seed}.json").write_bytes(metrics.to_json_bytes())

    summary = aggregate_summaries({s: m.summary() for s, m in results.items()})
    if failures:
        summary["failures"] = failures
    (out / "summary.json").write_bytes(
        json.dumps(summary, sort_keys=True, indent=2).encode()
    )
    print(f"{len(results)} run(s) written to {out}")
    if failures:
        for line in failures:
            print(f"failed: {line}", file=sys.stderr)
        return 1
    return 0


def _read_summary(path: str) -> dict | None:
    """The run summary (``summary.json``) at ``path``; otherwise None, with
    the error on stderr."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return None
    metrics = doc.get("metrics") if isinstance(doc, dict) else None
    if not (isinstance(metrics, dict)
            and all(isinstance(m, dict) for m in metrics.values())):
        print(f"error: {path}: not a run summary", file=sys.stderr)
        return None
    return doc


def cmd_compare(args: argparse.Namespace) -> int:
    docs = []
    for path in (args.baseline, args.candidate):
        doc = _read_summary(path)
        if doc is None:
            return 2
        docs.append(doc)
    a, b = docs
    if a.get("schema_id") != b.get("schema_id"):
        print(
            f"error: schema mismatch: {a.get('schema_id')!r} vs {b.get('schema_id')!r}",
            file=sys.stderr,
        )
        return 2
    deltas = {}
    for key in sorted(set(a["metrics"]) | set(b["metrics"])):
        mean_a = a["metrics"].get(key, {}).get("mean", 0.0)
        mean_b = b["metrics"].get(key, {}).get("mean", 0.0)
        for path, mean in ((args.baseline, mean_a), (args.candidate, mean_b)):
            if isinstance(mean, bool) or not isinstance(mean, (int, float)):
                print(f"error: {path}: metric {key!r}: mean is not a number",
                      file=sys.stderr)
                return 2
        delta = mean_b - mean_a
        deltas[key] = {
            "baseline": mean_a,
            "candidate": mean_b,
            "delta": delta,
            "sign": (delta > 0) - (delta < 0),
        }
    report = {"schema_id": a.get("schema_id"), "deltas": deltas}
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


def _cell_scenario(path: str) -> Scenario | None:
    """The scenario at ``path`` if it parses and has a cell section;
    otherwise None, with the error on stderr."""
    try:
        scenario = parse_scenario(path)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return None
    if scenario.cell is None:
        print("error: scenario has no cell section", file=sys.stderr)
        return None
    return scenario


def cmd_dump_program(args: argparse.Namespace) -> int:
    scenario = _cell_scenario(args.scenario)
    if scenario is None:
        return 2
    _, program = plan_cell(scenario, initial_rates(scenario))
    if program is None:
        print("(no published objects; everything is on demand)")
        return 0
    width = max(
        [len(s.object_id or "") for ch in program.channels for s in ch] + [5]
    )
    print(f"cycle length: {program.cycle_len_slots} slots")
    for i, channel in enumerate(program.channels):
        cells = []
        for slot in channel:
            if slot.kind == air_schedule.DATA:
                cells.append(slot.object_id.rjust(width))
            elif slot.kind == air_schedule.INDEX:
                cells.append("INDEX".rjust(width))
            else:
                cells.append("-".rjust(width))
        print(f"ch{i}: " + " ".join(cells))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    try:
        store = read_sample_log(json.loads(Path(args.samples).read_text()))
    except (OSError, json.JSONDecodeError, ScenarioError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        models = fidelity.fit_models(store)
    except (fidelity.InsufficientSamples, fidelity.RankDeficient) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    report = {
        "parameters": [p.name for p in store.domain.parameters],
        "models": [dataclasses.asdict(m) for m in models],
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    scenario = _cell_scenario(args.scenario)
    if scenario is None:
        return 2
    result, _ = plan_cell(scenario, initial_rates(scenario))
    report = {
        **plan_summary(result),
        "on_demand_count": len(result.partition.on_demand),
        "threshold": scenario.cell.threshold,
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aircell",
        description="Wireless-cell resource management simulator and planners",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario over one or more seeds")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seeds", default="0", help="e.g. '1,2,3' or '1..20'")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--format", choices=("csv", "json"), default="json")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="delta table between two summaries")
    p_cmp.add_argument("baseline")
    p_cmp.add_argument("candidate")
    p_cmp.add_argument("--out")
    p_cmp.set_defaults(func=cmd_compare)

    p_dump = sub.add_parser("dump-program", help="print the broadcast slot table")
    p_dump.add_argument("--scenario", required=True)
    p_dump.set_defaults(func=cmd_dump_program)

    p_fit = sub.add_parser("fit", help="fit consumption models from a sample log")
    p_fit.add_argument("--samples", required=True)
    p_fit.add_argument("--out")
    p_fit.set_defaults(func=cmd_fit)

    p_plan = sub.add_parser("plan", help="report the broadcast partition")
    p_plan.add_argument("--scenario", required=True)
    p_plan.set_defaults(func=cmd_plan)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
