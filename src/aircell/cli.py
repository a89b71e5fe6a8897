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
import math
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial
from pathlib import Path

from . import fidelity
from .sim import (
    SCHEMA_ID,
    Scenario,
    ScenarioError,
    cell_catalog,
    initial_rates,
    plan_cell,
    plan_summary,
    read_sample_log,
    run,
    scenario_from_dict,
)


class InputError(ValueError):
    """An input the command cannot use; the message names it."""


def _load(path: str | Path):
    """The JSON document in the file at ``path``, read as UTF-8."""
    p = Path(path)
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InputError(f"{p}: no such file") from None
    except OSError as e:
        raise InputError(f"{p}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"{p}: not UTF-8 ({e})") from None
    except (ValueError, RecursionError) as e:
        # a JSONDecodeError, an integer of too many digits or too deep a nesting
        raise InputError(f"{p}: invalid JSON ({e})") from None


def parse_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file; raises with every violation listed."""
    return scenario_from_dict(_load(path))


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
    A seed listed more than once is kept once, where it is first listed.
    """
    bounds: list[tuple[int, int]] = []
    for part in filter(None, map(str.strip, text.split(","))):
        lo, dots, hi = part.partition("..")
        try:
            bounds.append((int(lo), int(hi if dots else lo)))
        except ValueError:
            raise InputError(f"--seeds: {part!r} is not a seed or a lo..hi range") from None
    count = sum(max(hi - lo + 1, 0) for lo, hi in bounds)
    if not count:
        raise InputError("at least one seed is required")
    if count > _MAX_SEEDS:
        raise InputError(f"--seeds: {count} seeds, more than {_MAX_SEEDS}")
    lowest = min(lo for lo, hi in bounds if lo <= hi)
    if lowest < 0:
        raise InputError(f"seeds must be >= 0, got {lowest}")
    return list(dict.fromkeys(seed for lo, hi in bounds for seed in range(lo, hi + 1)))


# The scenario this process runs seeds of. ``_keep_scenario`` sets it once
# per process, in each worker as it starts, so a task carries only its seed.
_scenario: Scenario | None = None


def _keep_scenario(scenario: Scenario) -> None:
    global _scenario
    _scenario = scenario


def _run_one(seed: int, out: Path, fmt: str) -> dict[str, float]:
    """Run ``seed`` of the kept scenario, stream its ``metrics_<seed>.<fmt>``
    to the file and return its summary."""
    metrics = run(_with_seed(_scenario, seed))
    with open(out / f"metrics_{seed}.{fmt}", "wb") as fp:
        return (metrics.write_csv if fmt == "csv" else metrics.write_json)(fp)


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


def _write_report(report: dict, out: str | Path | None) -> int:
    """``report`` as indented JSON, to the file ``out`` or else to stdout."""
    text = json.dumps(report, sort_keys=True, indent=2)
    if not out:
        print(text)
        return 0
    try:
        Path(out).write_text(text)
    except OSError as e:
        raise InputError(f"{out}: {e.strerror}") from None
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise InputError(f"--jobs: must be >= 1, got {args.jobs}")
    scenario = parse_scenario(args.scenario)
    seeds = _parse_seeds(args.seeds)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".writable"
        probe.write_text("")
        probe.unlink()
    except OSError as e:
        raise InputError(f"output directory not writable: {e}") from None

    summaries: dict[int, dict[str, float]] = {}
    failures: list[str] = []
    # the pool starts all its workers at the first submit, and each keeps
    # the scenario as it starts; without a pool this process runs the seeds
    workers = min(args.jobs, len(seeds), os.cpu_count() or 1)
    pool = None
    if workers > 1:
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_keep_scenario,
                                   initargs=(scenario,))
    else:
        _keep_scenario(scenario)
    run_seed = partial(_run_one, out=out, fmt=args.format)
    with pool or nullcontext():
        futures = [pool.submit(run_seed, seed) if pool else None for seed in seeds]
        for seed, future in zip(seeds, futures):
            try:
                summaries[seed] = future.result() if future else run_seed(seed)
            except Exception as e:  # label partial output, keep going
                failures.append(f"seed {seed}: {e}")

    summary = aggregate_summaries(summaries)
    if failures:
        summary["failures"] = failures
    _write_report(summary, out / "summary.json")
    print(f"{len(summaries)} run(s) written to {out}")
    if failures:
        for line in failures:
            print(f"failed: {line}", file=sys.stderr)
        return 1
    return 0


def _read_summary(path: str) -> dict:
    """The run summary (``summary.json``) at ``path``."""
    doc = _load(path)
    metrics = doc.get("metrics") if isinstance(doc, dict) else None
    if not (isinstance(metrics, dict)
            and all(isinstance(m, dict) for m in metrics.values())):
        raise InputError(f"{path}: not a run summary")
    return doc


def cmd_compare(args: argparse.Namespace) -> int:
    a, b = _read_summary(args.baseline), _read_summary(args.candidate)
    if a.get("schema_id") != b.get("schema_id"):
        raise InputError(
            f"schema mismatch: {a.get('schema_id')!r} vs {b.get('schema_id')!r}"
        )
    deltas = {}
    for key in sorted(set(a["metrics"]) | set(b["metrics"])):
        mean_a = a["metrics"].get(key, {}).get("mean", 0.0)
        mean_b = b["metrics"].get(key, {}).get("mean", 0.0)
        for path, mean in ((args.baseline, mean_a), (args.candidate, mean_b)):
            if isinstance(mean, bool) or not isinstance(mean, (int, float)):
                raise InputError(f"{path}: metric {key!r}: mean is not a number")
        delta = mean_b - mean_a
        deltas[key] = {
            "baseline": mean_a,
            "candidate": mean_b,
            "delta": delta,
            "sign": (delta > 0) - (delta < 0),
        }
    report = {"schema_id": a.get("schema_id"), "deltas": deltas}
    return _write_report(report, args.out)


def _cell_scenario(path: str) -> Scenario:
    """The scenario at ``path``, which must have a cell section and objects."""
    scenario = parse_scenario(path)
    if scenario.cell is None:
        raise InputError("scenario has no cell section")
    if not scenario.objects:
        raise InputError("scenario has no objects to plan")
    return scenario


def cmd_dump_program(args: argparse.Namespace) -> int:
    scenario = _cell_scenario(args.scenario)
    _, program = plan_cell(scenario, cell_catalog(scenario), initial_rates(scenario))
    if program is None:
        print("(no published objects; everything is on demand)")
        return 0
    width = max([len(oid) for oid in program.directory] + [5])
    rows = [["-"] * program.cycle_len_slots for _ in range(program.n_channels)]
    for oid, (channel, slot) in program.directory.items():
        rows[channel][slot] = oid
    print(f"cycle length: {program.cycle_len_slots} slots")
    for i, row in enumerate(rows):
        for slot in program.index_slots(i):
            row[slot] = "INDEX"
        print(f"ch{i}: " + " ".join(label.rjust(width) for label in row))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    store = read_sample_log(_load(args.samples))
    try:
        models = fidelity.fit_models(store)
    except (fidelity.InsufficientSamples, fidelity.RankDeficient) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    report = {
        "parameters": [p.name for p in store.domain.parameters],
        "models": [dataclasses.asdict(m) for m in models],
    }
    return _write_report(report, args.out)


def cmd_plan(args: argparse.Namespace) -> int:
    scenario = _cell_scenario(args.scenario)
    result, _ = plan_cell(scenario, cell_catalog(scenario), initial_rates(scenario))
    threshold = scenario.cell.threshold
    report = {
        **plan_summary(result),
        "on_demand_count": len(result.partition.on_demand),
        # "no limit" reads as None, as plan_summary's infinities do
        "threshold": threshold if math.isfinite(threshold) else None,
    }
    return _write_report(report, None)


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
    """Run one subcommand. An input it cannot use exits 2 with one
    ``error:`` line; failed seeds and models that cannot be fitted exit 1."""
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ScenarioError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
