import json
import re
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from aircell import cli
from aircell.cli import _with_seed, aggregate_summaries, main, parse_scenario
from aircell.sim import ScenarioError, generate_workload, run, scenario_from_dict

MINI = {
    "seed": 1,
    "duration_slots": 120,
    "objects": {"count": 6, "mtbu": 80.0, "stdv_mtbu": 15.0},
    "clients": {"count": 4, "cache_capacity": 4, "policy": "lru",
                "default_qos": 0.3, "request_rate": 0.1},
    "adjacency": {"kind": "ring", "degree": 2},
    "resolution_mode": "p2p",
}


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
        with pytest.raises(ScenarioError) as err:
            parse_scenario(tmp_path / "nope.json")
        assert "no such file" in str(err.value)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError) as err:
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
        assert generate_workload(one).per_client != generate_workload(two).per_client


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

    def test_worker_pool_no_larger_than_the_seed_count(self, tmp_path, monkeypatch):
        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        scenario = write_scenario(tmp_path, MINI)
        assert main(["run", "--scenario", str(scenario), "--seeds", "1,2",
                     "--out", str(tmp_path / "out"), "--jobs", "64"]) == 0
        assert started == [2]
        assert sorted(p.name for p in (tmp_path / "out").glob("metrics_*.json")) == [
            "metrics_1.json", "metrics_2.json"]

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

    def test_plan_reports_partition(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, self.broadcast_doc())
        assert main(["plan", "--scenario", str(scenario)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is True
        assert report["published_count"] + report["on_demand_count"] == 6
        assert report["b_b"] + report["b_d"] == pytest.approx(10.0)

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


def readme_json_blocks() -> list[str]:
    """The text of every ```json block of the README."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return re.findall(r"```json\n(.*?)```", readme, flags=re.S)


class TestReadme:
    def test_every_json_block_is_read(self, tmp_path, capsys):
        blocks = readme_json_blocks()
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
