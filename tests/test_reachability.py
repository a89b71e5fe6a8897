"""Every function in ``src/aircell/`` is reached by the command line, or is
allow-listed with the ROADMAP item that will wire it.

A child process installs ``sys.setprofile`` before it imports the package,
so functions called at import time count, and then runs ``cli.main`` over a
fixed corpus: the documents the CI workflow runs, one run per cache policy
with a TTL set, a document whose clients register providers, a sample log
with a numeric discrete parameter, and the refused inputs. A function is
reached when its code object is called. It is matched to its definition by
its first line, which for a decorated function is the line of its first
decorator. The test fails both ways: a function newly unreached, and an
allow-listed name that is reached or no longer defined, so the list only
shrinks.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import aircell

PACKAGE = Path(aircell.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"

# Each unreached function, by its dotted name, and the ROADMAP item that
# will wire it or that it waits for.
ALLOWED = {
    # item 1, the benchmark: perfbench/tracing.py wraps stats_for, and
    # perfbench/workloads.py builds its programs with one_m, so each is
    # deleted only with a change to the benchmark
    **dict.fromkeys(("cache.ReadTracker.stats_for", "air_schedule.one_m"), "item 1"),
    # item 2, multi-object queries through the engine: the retrieval planners
    **dict.fromkeys((
        "retrieval.RetrievalRequest.__post_init__", "retrieval.row_scan",
        "retrieval.next_object_access", "retrieval._last_slot", "retrieval.tsp_order",
        "retrieval.brute_force", "retrieval.brute_force.extend",
        "retrieval.plan_as_dict",
    ), "item 2"),
    # item 4, the engine serves the plan it reports: the closed forms
    **dict.fromkeys((
        "broadcast_plan.expected_access_time", "air_schedule.expected_index_wait",
    ), "item 4"),
    # item 6, adaptation back in the engine: the fidelity selection half
    **dict.fromkeys((
        "fidelity.NoConfiguration.__init__", "fidelity.Parameter.grid_values",
        "fidelity.FidelityDomain.grid", "fidelity.ResourceModel.predict",
        "fidelity.feasible_configs", "fidelity.UtilityFn.eval",
        "fidelity.table_utility", "fidelity.sigmoid_utility", "fidelity.sigmoid_eval",
        "fidelity._check_weights", "fidelity.config_utility",
        "fidelity.maximize_utility",
    ), "item 6"),
}

# Runs ``cli.main`` on each argument list read from stdin under a profile
# hook, and writes the exit codes and every code object called.
CHILD = r"""
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


corpus = json.load(sys.stdin)
sys.setprofile(profile)
from aircell import cli

exits = []
for argv in corpus:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        exits.append(cli.main(argv))
sys.setprofile(None)
json.dump({"exits": exits,
           "called": sorted({(c.co_filename, c.co_firstlineno, c.co_name)
                             for c in called})}, sys.stdout)
"""


def defined_functions() -> dict[tuple[str, int, str], str]:
    """Every function defined in the package, named ``module.Outer.name``,
    by its file, the first line of its code object and its name."""
    found: dict[tuple[str, int, str], str] = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(str(path), first, child.name)] = f"{prefix}.{child.name}"
                visit(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return found


def corpus(tmp: Path) -> tuple[list[list[str]], list[int]]:
    """The argument lists the child runs, and the exit code of each."""
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    docs = {"samples": json.loads(next(b for b in blocks if '"samples"' in b))}
    scenario = json.loads(next(b for b in blocks if '"p2p"' in b))
    docs["scenario"] = scenario
    # the documents of the CI workflow's "Installed entry point" step, but for
    # its two of a million slots and its cell of 2*10^5 objects: they reach
    # no function the others miss, and under the profile hook they would
    # take most of the test's time
    cell = {"channels": 2, "total_bandwidth": 10.0, "threshold": 0.1,
            "batching_window": 4.0, "replan_interval": 50}
    broadcast = docs["broadcast"] = dict(scenario, resolution_mode="broadcast", cell=cell)
    docs["dedicated"] = dict(
        broadcast, cell=dict(cell, channels=3, dedicated_index_channel=True))
    # a cell with too little bandwidth for any stable partition, and one
    # with more than the reader allows
    docs["unstable"] = dict(broadcast, cell=dict(cell, total_bandwidth=0.5))
    docs["too_much_bandwidth"] = dict(broadcast, cell=dict(cell, total_bandwidth=1e308))
    docs["no_objects"] = {"seed": 1, "duration_slots": 10, "cell": {"channels": 1}}
    docs["too_many_channels"] = {"seed": 1, "duration_slots": 10,
                                 "objects": {"count": 2, "mtbu": 50.0},
                                 "cell": {"channels": 1000001}}
    # and beyond them: every policy with a TTL set, providers, and a
    # numeric discrete parameter
    for policy in ("lru", "ttl_drop", "ttl_requery", "cqf", "acqf"):
        docs[policy] = dict(scenario, clients=dict(scenario["clients"], policy=policy),
                            cache={"default_ttl": 60.0})
    docs["providers"] = dict(scenario, clients=[
        {"client_id": "a", "request_rate": 0.1, "providers": ["obj0", "obj1"]},
        {"client_id": "b", "request_rate": 0.1}])
    docs["numeric_samples"] = {
        "domain": [{"name": "level", "kind": "discrete", "values": [1, 2, 3]}],
        "samples": [{"config": {"level": level}, "consumption": {"cpu": 2.0 * level}}
                    for level in (1, 2, 3)]}
    for name, doc in docs.items():
        (tmp / f"{name}.json").write_text(json.dumps(doc))

    def path(name: str) -> str:
        return str(tmp / name)

    def run(name: str, *more: str) -> list[str]:
        out = path(f"out_{name}{''.join(more)}")
        return ["run", "--scenario", path(f"{name}.json"), "--seeds", "1..2",
                "--out", out, *more]

    calls = [
        (["fit", "--samples", path("samples.json")], 0),
        (["fit", "--samples", path("numeric_samples.json")], 0),
        *((run(name, *fmt), 0) for name in ("scenario", "broadcast")
          for fmt in ((), ("--format", "csv"))),
        *((run(policy), 0) for policy in ("lru", "ttl_drop", "ttl_requery", "cqf", "acqf")),
        (run("providers"), 0),
        *(([command, "--scenario", path(f"{name}.json")], 0)
          for name in ("broadcast", "dedicated") for command in ("plan", "dump-program")),
        (["plan", "--scenario", path("unstable.json")], 0),
        (run("unstable"), 0),
        (["compare", path("out_scenario/summary.json"),
          path("out_broadcast/summary.json")], 0),
        (["plan", "--scenario", path("no_objects.json")], 2),
        (["plan", "--scenario", path("too_many_channels.json")], 2),
        (["plan", "--scenario", path("too_much_bandwidth.json")], 2),
        (run("scenario", "--jobs", "0"), 2),
    ]
    return [argv for argv, _ in calls], [code for _, code in calls]


def reached_names(tmp: Path) -> set[str]:
    argvs, expected = corpus(tmp)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["exits"] == expected
    defined = defined_functions()
    called = {(str(Path(file).resolve()), line, name)
              for file, line, name in report["called"]}
    return {name for key, name in defined.items() if key in called}


def test_every_defined_name_is_unique():
    names = list(defined_functions().values())
    assert len(set(names)) == len(names)


def test_unreached_functions_are_the_allowed_ones(tmp_path):
    defined = set(defined_functions().values())
    unreached = defined - reached_names(tmp_path)
    new = sorted(unreached - ALLOWED.keys())
    assert not new, f"reached by no command and not allow-listed: {new}"
    gone = sorted(ALLOWED.keys() - unreached)
    assert not gone, f"allow-listed but reached or no longer defined, so unlist: {gone}"
