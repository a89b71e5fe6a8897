"""Every function in ``src/aircell/`` is reached by the command line, or is
allow-listed with the ROADMAP item that will wire it.

A child process installs ``sys.setprofile`` before it imports the package,
so functions called at import time count, and then runs ``cli.main`` over
the documents of ``tests/corpus.py``, the ones CI runs: ``fit`` on each
sample log, ``plan`` on each refused document, and ``run`` on every other
document but the ``HEAVY`` ones, which are too slow under the hook and say
why. A function is reached when its code object is called. It is matched
to its definition by its first line, which for a decorated function is the
line of its first decorator. The test fails both ways: a function newly
unreached, and an allow-listed name that is reached or no longer defined,
so the list only shrinks.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import aircell
import corpus

PACKAGE = Path(aircell.__file__).resolve().parent

# Each unreached function, by its dotted name, and the ROADMAP item that
# will wire it or that it waits for.
ALLOWED = {
    # item 1, the benchmark: perfbench/tracing.py wraps stats_for, and
    # perfbench/workloads.py builds its programs with one_m, so each is
    # deleted only with a change to the benchmark
    **dict.fromkeys(("cache.ReadTracker.stats_for", "air_schedule.one_m"), "item 1"),
    # item 1 too: the command line streams a run's records from their
    # columns, but perfbench/run.py serialises a run with to_json_bytes and
    # perfbench/checks.py iterates Metrics.records
    **dict.fromkeys(("sim.Metrics.to_json_bytes", "sim.Records.__iter__"), "item 1"),
    # item 2, multi-object queries through the engine: the retrieval planners
    **dict.fromkeys((
        "retrieval.RetrievalRequest.__post_init__", "retrieval.row_scan",
        "retrieval.next_object_access", "retrieval._gap_tables", "retrieval.tsp_order",
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


# The corpus documents the gate does not run, each with its reason. Under
# the profile hook, seeds 1..2, each takes seconds (CPython 3.11, one core
# of a shared 2-vCPU host), against about 2 s for all the others together;
# with them the gate reaches no further function.
HEAVY = {
    "sparse_ttl": "a million slots of TTL refreshes, as ttl_requery's: 8.0 s",
    "sparse_fold": "sparse_ttl with sources that write every 500 slots: 10.6 s",
    "large_air": "no_limit's cell with 2*10^5 objects: 2.4 s",
    "large_air_dedicated": "dedicated's cell with 2*10^5 objects: 2.6 s",
}


def calls(tmp: Path) -> list[tuple[list[str], int]]:
    """Each argument list the child runs, with its exit code."""
    corpus.write(tmp)

    def path(name: str) -> str:
        return str(tmp / name)

    def run(name: str, *more: str) -> list[str]:
        out = path(f"out_{name}{''.join(more)}")
        return ["run", "--scenario", path(f"{name}.json"), "--seeds", "1..2",
                "--out", out, *more]

    names = [name for name in corpus.documents() if name not in HEAVY]
    return [
        *((["fit", "--samples", path(f"{name}.json")], 0)
          for name in names if name.endswith("samples")),
        *((["plan", "--scenario", path(f"{name}.json")], 2) for name in corpus.REFUSED),
        *((run(name), 0) for name in names
          if not name.endswith("samples") and name not in corpus.REFUSED),
        *((run(name, "--format", "csv"), 0) for name in ("scenario", "broadcast")),
        *(([command, "--scenario", path(f"{name}.json")], 0)
          for name in ("broadcast", "dedicated") for command in ("plan", "dump-program")),
        (["plan", "--scenario", path("unstable.json")], 0),
        (["compare", path("out_scenario/summary.json"),
          path("out_broadcast/summary.json")], 0),
        (run("scenario", "--jobs", "0"), 2),
    ]


def reached_names(tmp: Path) -> set[str]:
    argvs, expected = zip(*calls(tmp))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["exits"] == list(expected)
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


def test_the_gate_runs_every_corpus_document_but_the_heavy_ones(tmp_path):
    documents = set(corpus.documents())
    read = {Path(argv[argv.index(flag) + 1]).stem for argv, _ in calls(tmp_path)
            for flag in ("--samples", "--scenario") if flag in argv}
    assert read == documents - HEAVY.keys()
    assert HEAVY.keys() <= documents and set(corpus.REFUSED) <= documents
