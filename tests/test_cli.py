import json
import os
import pickle
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import aircell
import corpus
from aircell import cli, sim
from aircell.cli import InputError, _with_seed, aggregate_summaries, main, parse_scenario
from aircell.sim import ScenarioError, run, scenario_from_dict
from oracles import workload_pairs

MINI = {
    "seed": 1,
    "duration_slots": 120,
    "objects": {"count": 6, "mtbu": 80.0, "stdv_mtbu": 15.0},
    "clients": {"count": 4, "cache_capacity": 4, "policy": "lru",
                "default_qos": 0.3, "request_rate": 0.1},
    "adjacency": {"kind": "ring", "degree": 2},
    "resolution_mode": "p2p",
}


def refuse_constant(constant):
    """``json.loads``' ``parse_constant``: Infinity and NaN are not JSON."""
    raise ValueError(f"{constant} is not JSON")


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestParseScenario:
    def test_minimal_file_gets_defaults(self, tmp_path):
        path = write_scenario(tmp_path, MINI)
        scn = parse_scenario(path)
        assert scn.caching and scn.p2p and not scn.overhearing
        assert scn.zipf_theta == 0.8
        assert scn.costs.source == 5.0
        assert len(scn.clients) == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError) as err:
            parse_scenario(tmp_path / "nope.json")
        assert "no such file" in str(err.value)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputError) as err:
            parse_scenario(path)
        assert "invalid JSON" in str(err.value)

    def test_unknown_key_named_with_location(self, tmp_path):
        doc = dict(MINI)
        doc["objects"] = [{"object_id": "a", "mtbu": 10.0, "wat": 1}]
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(path)
        assert "objects[0]" in str(err.value) and "wat" in str(err.value)

    def test_negative_bandwidth_rejected(self, tmp_path):
        doc = dict(MINI)
        doc["resolution_mode"] = "broadcast"
        doc["cell"] = {"channels": 2, "total_bandwidth": -1.0}
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(path)
        assert "total_bandwidth" in str(err.value)


class TestSeeds:
    def test_seeds_share_object_parameters_and_vary_the_workload(self):
        doc = dict(MINI, objects={"count": 6, "mtbu_range": [40.0, 400.0]})
        scn = scenario_from_dict(doc)
        one, two = _with_seed(scn, 1), _with_seed(scn, 2)
        assert len({o.mtbu for o in scn.objects}) == 6  # drawn, one per object
        assert one.objects == two.objects == scn.objects
        assert (one.seed, two.seed) == (1, 2)
        assert workload_pairs(one) != workload_pairs(two)


class TestRunCommand:
    def test_single_seed_writes_metrics_and_summary(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, MINI)
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(scenario), "--seeds", "1",
                     "--out", str(out)])
        assert code == 0
        assert (out / "metrics_1.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seeds"] == [1]
        assert "source_load" in summary["metrics"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_one_summary_per_seed(self, tmp_path, monkeypatch, fmt):
        # the writer returns the summary it wrote, which the run keeps
        calls = []
        summary = sim.Metrics.summary
        monkeypatch.setattr(sim.Metrics, "summary",
                            lambda metrics: calls.append(metrics.seed) or summary(metrics))
        scenario = write_scenario(tmp_path, MINI)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--seeds", "1",
                     "--format", fmt, "--out", str(out)]) == 0
        assert calls == [1]
        kept = json.loads((out / "summary.json").read_text())["metrics"]
        metrics = run(_with_seed(parse_scenario(str(scenario)), 1))
        assert {key: value["mean"] for key, value in kept.items()} == metrics.summary()

    def test_seed_range_writes_one_file_per_seed(self, tmp_path):
        scenario = write_scenario(tmp_path, MINI)
        out = tmp_path / "sweep"
        code = main(["run", "--scenario", str(scenario), "--seeds", "1..20",
                     "--out", str(out)])
        assert code == 0
        files = sorted(out.glob("metrics_*.json"))
        assert len(files) == 20
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["seeds"]) == 20
        assert summary["metrics"]["issued"]["stdev"] >= 0.0

    def test_worker_pool_matches_sequential_output(self, tmp_path):
        scenario = write_scenario(tmp_path, MINI)
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert main(["run", "--scenario", str(scenario), "--seeds", "1..4",
                     "--out", str(seq)]) == 0
        assert main(["run", "--scenario", str(scenario), "--seeds", "1..4",
                     "--out", str(par), "--jobs", "2"]) == 0
        for seed in range(1, 5):
            assert ((seq / f"metrics_{seed}.json").read_bytes()
                    == (par / f"metrics_{seed}.json").read_bytes())

    @pytest.fixture
    def pools(self, monkeypatch):
        """The ``max_workers`` of every pool ``run`` starts; the pool runs
        its initializer and its jobs inline, so no process is started."""
        started = []

        class InlinePool:
            def __init__(self, max_workers, initializer=None, initargs=()):
                started.append(max_workers)
                if initializer is not None:
                    initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        return started

    def test_a_task_carries_its_seed_not_the_scenario(self, tmp_path, monkeypatch):
        # every task used to pickle the whole scenario: 9.8 MB at 2*10^5 objects
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        sent = []

        class PicklingPool:
            """Pickles what crosses to a worker, as a process pool does."""

            def __init__(self, max_workers, initializer=None, initargs=()):
                if initializer is not None:
                    sent.append(("init", len(pickle.dumps(initargs))))
                    initializer(*pickle.loads(pickle.dumps(initargs)))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                task = pickle.dumps((fn, args))
                sent.append(("task", len(task)))
                fn, args = pickle.loads(task)
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", PicklingPool)
        sizes = {}
        for count, name in ((6, "small"), (6000, "large")):
            sent.clear()
            doc = dict(MINI, objects=dict(MINI["objects"], count=count))
            out = tmp_path / name
            assert main(["run", "--scenario", str(write_scenario(tmp_path, doc)),
                         "--seeds", "1..3", "--out", str(out), "--jobs", "2"]) == 0
            assert len(list(out.glob("metrics_*.json"))) == 3
            sizes[count] = list(sent)
        # a task is the same few hundred bytes whatever the object count
        tasks = {count: {size for kind, size in s if kind == "task"} for count, s in sizes.items()}
        assert tasks[6000] == tasks[6] and len(tasks[6]) == 1 and max(tasks[6]) < 1_000
        # and the scenario, which grows with the objects, is sent once per pool
        (_, small), (_, large) = sizes[6][0], sizes[6000][0]
        assert [kind for kind, _ in sizes[6000]] == ["init", "task", "task", "task"]
        assert large > 100 * small

    def test_worker_pool_no_larger_than_the_seed_count(self, tmp_path, monkeypatch, pools):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        scenario = write_scenario(tmp_path, MINI)
        assert main(["run", "--scenario", str(scenario), "--seeds", "1,2",
                     "--out", str(tmp_path / "out"), "--jobs", "64"]) == 0
        assert pools == [2]
        assert sorted(p.name for p in (tmp_path / "out").glob("metrics_*.json")) == [
            "metrics_1.json", "metrics_2.json"]

    @pytest.mark.parametrize("jobs, cpus, started", [
        ("100000", 3, [3]), ("2", 3, [2]), ("100000", 1, []), ("100000", None, []),
    ], ids=["capped by the cpus", "below the cpus", "one cpu", "cpu count unknown"])
    def test_worker_pool_no_larger_than_the_cpu_count(
        self, tmp_path, monkeypatch, pools, jobs, cpus, started
    ):
        # a large --jobs used to start that many processes, up to one per seed
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, MINI)),
                     "--seeds", "1..5", "--out", str(out), "--jobs", jobs]) == 0
        assert pools == started
        assert len(list(out.glob("metrics_*.json"))) == 5

    def test_each_seed_is_written_when_its_run_ends(self, tmp_path, monkeypatch):
        # every seed's metrics used to be held until the last seed had run
        out = tmp_path / "out"
        written = {}

        def watched(scenario):
            written[scenario.seed] = sorted(p.name for p in out.glob("metrics_*"))
            return run(scenario)

        monkeypatch.setattr(cli, "run", watched)
        assert main(["run", "--scenario", str(write_scenario(tmp_path, MINI)),
                     "--seeds", "1..3", "--out", str(out)]) == 0
        assert written == {1: [], 2: ["metrics_1.json"],
                           3: ["metrics_1.json", "metrics_2.json"]}

    def test_a_repeated_seed_runs_once(self, tmp_path, monkeypatch):
        # "1,1" used to run seed 1 twice
        seeds = []

        def counted(scenario):
            seeds.append(scenario.seed)
            return run(scenario)

        monkeypatch.setattr(cli, "run", counted)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, MINI)),
                     "--seeds", "1,1,2", "--out", str(out)]) == 0
        assert seeds == [1, 2]
        assert json.loads((out / "summary.json").read_text())["seeds"] == [1, 2]
        assert cli._parse_seeds("2, 1..3, 2") == [2, 1, 3]

    def test_csv_format_has_frozen_columns(self, tmp_path):
        scenario = write_scenario(tmp_path, MINI)
        out = tmp_path / "csv_out"
        code = main(["run", "--scenario", str(scenario), "--seeds", "3",
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = (out / "metrics_3.csv").read_text().splitlines()
        assert lines[0] == ("query_id,client_id,object_id,resolution,"
                            "latency_slots,staleness_slots,qos,qos_met")
        assert any(line.startswith("summary,*,source_load,") for line in lines)

    def test_unwritable_output_fails_before_running(self, tmp_path):
        scenario = write_scenario(tmp_path, MINI)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(["run", "--scenario", str(scenario), "--seeds", "1",
                     "--out", str(blocker / "sub")])
        assert code == 2

    def test_invalid_scenario_exits_2(self, tmp_path):
        doc = dict(MINI)
        doc["unknown_top"] = True
        scenario = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", str(scenario), "--seeds", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("seeds, lowest", [("-1", -1), ("2,-3", -3), ("-2..1", -2)])
    def test_negative_seed_exits_2(self, tmp_path, capsys, seeds, lowest):
        # "-1" used to run nothing and report numpy's seeding error per seed
        scenario = write_scenario(tmp_path, MINI)
        out = tmp_path / "x"
        code = main(["run", "--scenario", str(scenario), f"--seeds={seeds}",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: seeds must be >= 0, got {lowest}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["1..2..3", "a", "3..", "1,,x"])
    def test_malformed_seeds_exit_2(self, tmp_path, capsys, seeds):
        # they used to report Python's unpacking or int() error
        out = tmp_path / "x"
        code = main(["run", "--scenario", str(write_scenario(tmp_path, MINI)),
                     f"--seeds={seeds}", "--out", str(out)])
        assert code == 2
        bad = seeds.split(",")[-1]
        assert capsys.readouterr().err == (
            f"error: --seeds: {bad!r} is not a seed or a lo..hi range\n")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_fewer_than_one_job_exits_2(self, tmp_path, capsys, jobs):
        # they used to run the seeds one after another and exit 0
        out = tmp_path / "x"
        code = main(["run", "--scenario", str(write_scenario(tmp_path, MINI)),
                     "--out", str(out), "--jobs", jobs])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: --jobs: must be >= 1, got {jobs}\n")
        assert not out.exists()

    def test_too_many_seeds_refused_before_any_list(self, monkeypatch):
        # "0..10000000000" used to build the whole list of seeds first
        def no_list(*args):
            raise AssertionError("a range of seeds was built")

        monkeypatch.setattr(cli, "range", no_list, raising=False)
        with pytest.raises(ValueError, match=r"^--seeds: 10000000001 seeds, more than 1000000$"):
            cli._parse_seeds("0..10000000000")
        with pytest.raises(ValueError, match="1000001 seeds"):
            cli._parse_seeds("5,1..1000000")
        monkeypatch.undo()
        assert cli._parse_seeds("0..2, 7") == [0, 1, 2, 7]


class TestCompareCommand:
    def run_pair(self, tmp_path, doc_a, doc_b):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, doc_a, "a.json")),
                     "--seeds", "1..5", "--out", str(out_a)]) == 0
        assert main(["run", "--scenario", str(write_scenario(tmp_path, doc_b, "b.json")),
                     "--seeds", "1..5", "--out", str(out_b)]) == 0
        return out_a / "summary.json", out_b / "summary.json"

    def test_identical_runs_give_zero_deltas(self, tmp_path, capsys):
        a, b = self.run_pair(tmp_path, MINI, MINI)
        capsys.readouterr()  # drop the run commands' chatter
        assert main(["compare", str(a), str(b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(row["delta"] == 0.0 and row["sign"] == 0
                   for row in report["deltas"].values())

    def test_disabling_caching_raises_source_load(self, tmp_path, capsys):
        cached = dict(MINI)
        uncached = dict(MINI)
        uncached["toggles"] = {"p2p": False, "caching": False}
        a, b = self.run_pair(tmp_path, uncached, cached)
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 0
        report = json.loads(capsys.readouterr().out)
        row = report["deltas"]["source_load"]
        assert row["delta"] < 0 and row["sign"] == -1

    def test_schema_mismatch_refused(self, tmp_path):
        a, b = self.run_pair(tmp_path, MINI, MINI)
        doc = json.loads(b.read_text())
        doc["schema_id"] = "something-else/9"
        b.write_text(json.dumps(doc))
        assert main(["compare", str(a), str(b)]) == 2

    def test_per_seed_metrics_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, MINI)),
                     "--seeds", "1", "--out", str(out)]) == 0
        metrics = out / "metrics_1.json"
        capsys.readouterr()
        assert main(["compare", str(out / "summary.json"), str(metrics)]) == 2
        assert capsys.readouterr().err == f"error: {metrics}: not a run summary\n"

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"schema_id": "aircell-scenario/1", "seeds": [1]},
        {"schema_id": "aircell-scenario/1", "metrics": {"issued": 3.0}},
    ])
    def test_non_summary_document_refused(self, tmp_path, capsys, doc):
        path = write_scenario(tmp_path, doc, "not_a_summary.json")
        assert main(["compare", str(path), str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: not a run summary\n"

    def test_summaries_without_schema_id_compare(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"metrics": {}}, "bare.json")
        assert main(["compare", str(path), str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"schema_id": None, "deltas": {}}

    @pytest.mark.parametrize("mean", ["x", True, None])
    def test_non_numeric_mean_refused(self, tmp_path, capsys, mean):
        good = write_scenario(tmp_path, {"schema_id": "aircell-scenario/1",
                                         "metrics": {"issued": {"mean": 3.0}}}, "good.json")
        bad = write_scenario(tmp_path, {"schema_id": "aircell-scenario/1",
                                        "metrics": {"issued": {"mean": mean}}}, "bad.json")
        assert main(["compare", str(good), str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: metric 'issued': mean is not a number\n")


class TestPlanningCommands:
    def broadcast_doc(self):
        doc = dict(MINI)
        doc["resolution_mode"] = "broadcast"
        doc["cell"] = {"channels": 2, "scheme": "one_m", "m": 2,
                       "total_bandwidth": 10.0, "request_size": 0.25,
                       "threshold": 0.2, "batching_window": 2.0}
        return doc

    def test_dump_program_prints_slot_table(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, self.broadcast_doc())
        assert main(["dump-program", "--scenario", str(scenario)]) == 0
        out = capsys.readouterr().out
        assert "cycle length" in out
        assert "ch0:" in out and "ch1:" in out
        assert "INDEX" in out

    # every object published (threshold 1e9), so the table is the whole cycle
    DUMPS = {
        "padded_one_m": (
            {"count": 5, "mtbu": 80.0},
            {"channels": 2, "scheme": "one_m", "m": 2},
            "cycle length: 5 slots\n"
            "ch0: INDEX  obj0  obj2 INDEX  obj4\n"
            "ch1: INDEX  obj1  obj3 INDEX     -\n",
        ),
        "dedicated_index": (
            {"count": 5, "mtbu": 80.0},
            {"channels": 3, "scheme": "one_m", "m": 2, "dedicated_index_channel": True},
            "cycle length: 3 slots\n"
            "ch0: INDEX INDEX INDEX\n"
            "ch1:  obj0  obj2  obj4\n"
            "ch2:  obj1  obj3     -\n",
        ),
        # an empty id is a data slot, and the longest id sets the width
        "distributed": (
            [{"object_id": oid, "mtbu": 80.0} for oid in ("", "longer_id", "c")],
            {"channels": 2, "scheme": "distributed"},
            "cycle length: 4 slots\n"
            "ch0:     INDEX               INDEX         c\n"
            "ch1:     INDEX longer_id     INDEX         -\n",
        ),
    }

    @pytest.mark.parametrize("name", sorted(DUMPS))
    def test_dump_program_exact_table(self, tmp_path, capsys, name):
        objects, cell, expected = self.DUMPS[name]
        doc = dict(MINI, objects=objects, resolution_mode="broadcast",
                   cell=dict(cell, total_bandwidth=10.0, threshold=1e9))
        scenario = write_scenario(tmp_path, doc)
        assert main(["dump-program", "--scenario", str(scenario)]) == 0
        assert capsys.readouterr().out == expected

    def test_plan_reports_partition(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, self.broadcast_doc())
        assert main(["plan", "--scenario", str(scenario)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is True
        assert report["published_count"] + report["on_demand_count"] == 6
        assert report["b_b"] + report["b_d"] == pytest.approx(10.0)

    def test_unstable_plan_is_strict_json(self, tmp_path, capsys):
        # 4 clients x 0.1 requests per slot x 1.25 = 0.5 > 0.3: no partition is stable
        doc = self.broadcast_doc()
        doc["cell"]["total_bandwidth"] = 0.3
        scenario = write_scenario(tmp_path, doc)
        assert main(["plan", "--scenario", str(scenario)]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
        assert report["feasible"] is False
        assert report["expected_access_raw"] is report["expected_access_normalized"] is None

    def test_no_limit_threshold_is_strict_json(self, tmp_path, capsys):
        # the default threshold is inf, "no limit": it printed as Infinity
        doc = self.broadcast_doc()
        del doc["cell"]["threshold"]
        scenario = write_scenario(tmp_path, doc)
        assert main(["plan", "--scenario", str(scenario)]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
        assert report["threshold"] is None
        assert report["feasible"] is True and report["published_count"] == 6

    def test_plan_stdout_matches_the_run_plan(self, tmp_path, capsys):
        doc = self.broadcast_doc()
        scenario = write_scenario(tmp_path, doc)
        assert main(["plan", "--scenario", str(scenario)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert sorted(report) == [
            "b_b", "b_d", "expected_access_normalized", "expected_access_raw",
            "feasible", "on_demand_count", "published", "published_count",
            "threshold",
        ]
        plan = run(scenario_from_dict(doc)).plan
        assert report == {
            **plan,
            "on_demand_count": 6 - plan["published_count"],
            "threshold": 0.2,
        }

    def test_fit_recovers_planted_coefficients(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        samples = []
        for _ in range(40):
            fr = float(rng.choice([10.0, 20.0, 30.0]))
            res = float(rng.choice([1.0, 2.0]))
            samples.append({
                "config": {"frame_rate": fr, "resolution": res},
                "consumption": {"bandwidth": 0.3 * fr + 2.0 * res + 1.5,
                                "cpu": 0.1 * fr + 0.5},
            })
        doc = {
            "domain": [
                {"name": "frame_rate", "kind": "discrete",
                 "values": [10.0, 20.0, 30.0]},
                {"name": "resolution", "kind": "discrete", "values": [1.0, 2.0]},
            ],
            "samples": samples,
        }
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(doc))
        assert main(["fit", "--samples", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        by_id = {m["resource_id"]: m for m in report["models"]}
        assert by_id["bandwidth"]["coefficients"] == pytest.approx([0.3, 2.0], abs=1e-9)
        assert by_id["bandwidth"]["intercept"] == pytest.approx(1.5, abs=1e-9)
        assert by_id["cpu"]["coefficients"] == pytest.approx([0.1, 0.0], abs=1e-9)


    @pytest.mark.parametrize("domain", [
        None,
        [{"name": "frame_rate", "kind": "stepped", "values": [1.0]}],
        [{"name": "frame_rate", "kind": "discrete"}],
    ])
    def test_fit_rejects_a_malformed_domain(self, tmp_path, capsys, domain):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"domain": domain, "samples": []}))
        assert main(["fit", "--samples", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: domain")

    def test_fit_rejects_an_overflowing_span(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        domain = [{"name": "level", "kind": "continuous", "lo": -1e308, "hi": 1e308}]
        path.write_text(json.dumps({"domain": domain, "samples": []}))
        assert main(["fit", "--samples", str(path)]) == 2
        assert capsys.readouterr().err == "error: domain[0]: hi - lo must be finite\n"

    DOMAIN = [{"name": "frame_rate", "kind": "discrete", "values": [10.0, 20.0]},
              {"name": "level", "kind": "continuous", "lo": 0, "hi": 5}]

    @pytest.mark.parametrize("log, message", [
        pytest.param({"domain": DOMAIN, "samples": 5},
                     "samples: must be a list, got int", id="samples a number"),
        pytest.param({"domain": DOMAIN},
                     "sample log: missing key 'samples'", id="samples missing"),
        pytest.param([DOMAIN], "sample log: must be a mapping, got list", id="a list"),
        pytest.param({"domain": DOMAIN, "samples": [
            {"config": {"frame_rate": 15.0, "level": 9}, "consumption": {}},
            {"config": {"frame_rate": True, "lvl": 1}, "consumption": {"cpu": "a"}},
            [],
        ]}, "samples[0].config.frame_rate: must be 10.0 or 20.0, got 15.0; "
            "samples[0].config.level: must be in [0.0, 5.0]; "
            "samples[0].consumption: must name at least one resource; "
            "samples[1].config.frame_rate: must be 10.0 or 20.0, got True; "
            "samples[1].config: unknown key 'lvl'; "
            "samples[1].config: missing key 'level'; "
            "samples[1].consumption.cpu: must be a number, got 'a'; "
            "samples[2]: must be a mapping, got list", id="bad samples"),
    ])
    def test_fit_rejects_a_malformed_sample_log(self, tmp_path, capsys, log, message):
        # each used to exit 1 with Python's exception text, or name the domain
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(log))
        assert main(["fit", "--samples", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_too_few_samples_still_exit_1(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"domain": self.DOMAIN, "samples": [
            {"config": {"frame_rate": 10.0, "level": 1}, "consumption": {"cpu": 1.0}}]}))
        assert main(["fit", "--samples", str(path)]) == 1
        assert capsys.readouterr().err == "error: cpu: 1 samples for 3 coefficients\n"


def unreadable(tmp_path, kind: str) -> Path:
    """A path no command can read as a JSON document."""
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not UTF-8":
        path.write_bytes(b"\xff{")
    elif kind == "not JSON":
        path.write_text("{not json")
    return path


# each subcommand's arguments, reading its one input file from ``path``
COMMANDS = {
    "run": lambda path, out: ["run", "--scenario", path, "--out", out],
    "plan": lambda path, out: ["plan", "--scenario", path],
    "dump-program": lambda path, out: ["dump-program", "--scenario", path],
    "fit": lambda path, out: ["fit", "--samples", path],
    "compare": lambda path, out: ["compare", path, path],
}


def python_m_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -W error::RuntimeWarning -m aircell.cli`` in a fresh process."""
    src = str(Path(aircell.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "aircell.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestUnreadableInput:
    """Every input a command cannot use exits 2 with one ``error:`` line."""

    @pytest.mark.parametrize("kind", ["missing", "directory", "not UTF-8", "not JSON"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_one_error_line_and_exit_2(self, tmp_path, capsys, command, kind):
        # a directory used to escape every command as IsADirectoryError, and
        # bytes that are not UTF-8 every command but run (which caught any
        # ValueError) as UnicodeDecodeError
        path = unreadable(tmp_path, kind)
        assert main(COMMANDS[command](str(path), str(tmp_path / "out"))) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: ")
        if kind == "missing":
            assert err == f"error: {path}: no such file\n"
        if kind == "not JSON":
            assert err.startswith(f"error: {path}: invalid JSON (")

    @pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5000],
                             ids=["nested too deep", "a very long integer"])
    def test_documents_json_cannot_hold(self, tmp_path, capsys, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        # they used to escape as RecursionError and ValueError
        assert main(["plan", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_scenario_without_a_cell(self, tmp_path, capsys):
        assert main(["plan", "--scenario", str(write_scenario(tmp_path, MINI))]) == 2
        assert capsys.readouterr().err == "error: scenario has no cell section\n"

    @pytest.mark.parametrize("command", ["plan", "dump-program"])
    def test_cell_without_objects(self, tmp_path, capsys, command):
        # the planner used to end in a ValueError traceback and exit 1
        doc = {"seed": 1, "duration_slots": 10, "cell": {"channels": 1}}
        assert main([command, "--scenario", str(write_scenario(tmp_path, doc))]) == 2
        assert capsys.readouterr() == ("", "error: scenario has no objects to plan\n")

    def test_python_m_runs_without_a_warning(self, tmp_path):
        # the package imported cli, so runpy warned that it was already loaded
        assert python_m_cli("--help").returncode == 0
        path = unreadable(tmp_path, "directory")
        done = python_m_cli("plan", "--scenario", str(path))
        assert done.returncode == 2 and done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith(f"error: {path}: ")


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_one_error_line_and_exit_2(self, tmp_path, capsys, command):
        # the report's bare write let FileNotFoundError escape with exit 1
        if command == "fit":
            path = tmp_path / "samples.json"
            path.write_text(next(b for b in corpus.readme_blocks() if '"samples"' in b))
            args = ["fit", "--samples", str(path)]
        else:
            path = write_scenario(tmp_path, {"metrics": {}}, "summary.json")
            args = ["compare", str(path), str(path)]
        out = tmp_path / "missing" / "report.json"
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {out}: No such file or directory\n")


class TestReadme:
    def test_every_json_block_is_read(self, tmp_path, capsys):
        blocks = corpus.readme_blocks()
        logs = [b for b in blocks if '"samples"' in b]
        assert logs and len(logs) < len(blocks)
        for block in blocks:
            doc = json.loads(block)
            if block in logs:
                path = tmp_path / "samples.json"
                path.write_text(block)
                assert main(["fit", "--samples", str(path)]) == 0, capsys.readouterr().err
            else:
                run(scenario_from_dict(doc))


class TestAggregate:
    def test_mean_and_stdev(self):
        summary = aggregate_summaries({
            1: {"issued": 10.0}, 2: {"issued": 14.0},
        })
        assert summary["metrics"]["issued"]["mean"] == 12.0
        assert summary["metrics"]["issued"]["stdev"] == 2.0
