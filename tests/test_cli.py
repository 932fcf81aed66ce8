import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from wolearn import cli
from wolearn.backbone import Network
from wolearn.cli import (SWEEP_COLUMNS, ExperimentSpec, _aggregate, _check_consistency,
                         _load_spec, main, run_cells)
from wolearn.core import Dataset, ParameterError
from wolearn.dgp import simulate
from wolearn.learners import run_experiment

TINY = dict(kind="gamma", dgp={"n_train": 200, "n_test": 40, "T": 5},
            learners=["wo", "ra"], seeds=[0], window="1")


def _read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestExperimentSpec:
    def test_defaults_and_hash_stability(self):
        s1 = ExperimentSpec(**TINY)
        s2 = ExperimentSpec(**TINY)
        assert s1.hash == s2.hash
        assert ExperimentSpec(**{**TINY, "floor": 0.05}).hash != s1.hash

    def test_empty_learners_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(**{**TINY, "learners": []})
        with pytest.raises(ParameterError, match="unknown learner"):
            ExperimentSpec(**{**TINY, "learners": ["wo", "xgb"]})
        assert ExperimentSpec(**{**TINY, "learners": ["ipw_nofloor"]}).learners == ("ipw_nofloor",)

    def test_off_grid_values_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(**{**TINY, "axis": "gamma", "grid": [0.7]})

    def test_unknown_axis_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(**{**TINY, "axis": "bogus", "grid": [1]})

    def test_config_for_applies_axis_value(self):
        spec = ExperimentSpec(**{**TINY, "axis": "gamma", "grid": [2.0, 4.0]})
        assert spec.config_for(4.0).gamma == 4.0
        assert spec.config_for(4.0).n_train == 200

    def test_pseudo_config_flags(self):
        spec = ExperimentSpec(**{**TINY, "clamp_rho": True})
        assert spec.pseudo_config.clamp_rho
        assert not ExperimentSpec(**TINY).pseudo_config.clamp_rho

    def test_bad_generator_settings_fail_when_built(self):
        with pytest.raises(ParameterError, match="unknown generator setting"):
            ExperimentSpec(**{**TINY, "dgp": {"seed": 3}})
        # tau = 5 is on the reference grid, but gamma's T = 5 leaves no anchor
        with pytest.raises(ParameterError, match="tau"):
            ExperimentSpec(**{**TINY, "axis": "tau", "grid": [1, 5]})

    def test_integer_axis_grid_normalized(self):
        base = {**TINY, "kind": "n", "axis": "n_train"}
        as_float = ExperimentSpec(**{**base, "grid": [2000.0]})
        as_int = ExperimentSpec(**{**base, "grid": [2000]})
        assert as_float == as_int and as_float.hash == as_int.hash
        assert type(as_float.grid[0]) is int
        with pytest.raises(ParameterError, match="integer"):
            ExperimentSpec(**{**base, "grid": [2000.5]})

    @pytest.mark.parametrize("fault, match", [
        ({"window": 0}, "window"),
        ({"window": 99}, "window"),  # gamma's T is 5
        ({"floor": 2.0}, "floor"),
        ({"floor": -0.1}, "floor"),
        ({"axis": "gamma", "grid": []}, "empty"),
        ({"kind": "bogus"}, "kind"),
        ({"seeds": []}, "seeds"),
        ({"seeds": [0, 0]}, "seeds"),
        ({"seeds": [-1]}, "seeds"),
        ({"axis": "gamma", "grid": [2.0, 4.0, 2.0]}, "repeats"),
        ({"window": 2.7}, "window"),  # int() would truncate it to 2
        ({"window": "abc"}, "window"),
        ({"seeds": [1.5, 2.7]}, "seeds"),  # int() would truncate them to (1, 2)
        ({"seeds": ["a"]}, "seeds"),
        ({"axis": "tau", "grid": ["abc"]}, "grid"),
        ({"axis": "tau", "grid": [None]}, "grid"),
        ({"grid": [2.0, 3.0]}, "without a sweep axis"),  # would rerun one cell per value
        ({"dgp": {"T": 2.5}}, "T"),
        ({"window": True}, "window"),  # a JSON true is not the step count 1
        ({"floor": "0.05"}, "floor"),  # used to raise a bare TypeError
        ({"clamp_rho": 1}, "clamp_rho"),  # used to clamp, as any truthy value did
        # each used to raise a bare TypeError
        ({"dgp": {"kind": "pi"}}, "dgp"),
        ({"dgp": [1]}, "dgp"),
        ({"seeds": 3}, "seeds"),
        # a string used to be split into its characters
        ({"seeds": "01"}, "seeds"),
        ({"axis": "tau", "grid": "13"}, "grid"),
        ({"learners": "ra"}, "learners"),
        # kind n ignores gamma, so the sweep would score one cell twice
        ({"kind": "n", "axis": "gamma", "grid": [2.0, 4.0]}, "gamma=2.0 .*kind 'n'"),
        # the cell used to train wo twice and keep the second fit
        ({"learners": ["wo", "wo", "ra"]}, "repeat a learner"),
    ])
    def test_faults_fail_when_built(self, fault, match):
        with pytest.raises(ParameterError, match=match):
            ExperimentSpec(**{**TINY, **fault})

    @pytest.mark.parametrize("key", ["lam", "allow_off_grid", "windw"])
    def test_unknown_spec_file_key_rejected(self, tmp_path, key):
        # spec files that set a removed field fail by name, not with TypeError
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**TINY, key: 0.5}))
        with pytest.raises(ParameterError, match=f"unknown spec field.*{key}"):
            _load_spec(spec_file)

    def test_spec_file_dgp_kind_rejected(self, tmp_path):
        # the kind is the spec's own field, never a generator setting
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**TINY, "dgp": {"kind": "pi"}}))
        with pytest.raises(ParameterError, match="dgp must be an object"):
            _load_spec(spec_file)

    @pytest.mark.parametrize("spec_text, dgp, match", [
        (None, "{bad", "dgp is not valid JSON"),
        ("{not json", None, "spec file .*spec.json is not valid JSON"),
        ("[1, 2]", None, "spec file .*spec.json must hold a JSON object"),
    ])
    def test_malformed_json_rejected_by_name(self, tmp_path, spec_text, dgp, match):
        # each used to raise a bare JSONDecodeError or AttributeError
        spec_file = None
        if spec_text is not None:
            spec_file = tmp_path / "spec.json"
            spec_file.write_text(spec_text)
        with pytest.raises(ParameterError, match=match):
            _load_spec(spec_file, dgp=dgp)

    def test_spec_file_clamp_rho_must_be_bool(self, tmp_path):
        # the string "false" is truthy, so it used to clamp
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**TINY, "clamp_rho": "false"}))
        with pytest.raises(ParameterError, match="clamp_rho"):
            _load_spec(spec_file)
        spec_file.write_text(json.dumps({**TINY, "clamp_rho": False}))
        assert _load_spec(spec_file).pseudo_config.clamp_rho is False

    def test_window_normalized(self):
        as_str = ExperimentSpec(**{**TINY, "window": "1"})
        as_int = ExperimentSpec(**{**TINY, "window": 1})
        assert as_str == as_int and as_str.hash == as_int.hash and as_str.window == 1
        assert ExperimentSpec(**{**TINY, "window": 2.0}).window == 2
        assert ExperimentSpec(**{**TINY, "seeds": [0, 1.0]}).seeds == (0, 1)
        assert ExperimentSpec(**{**TINY, "window": "full"}).window == "full"


@pytest.mark.parametrize("command", ["simulate", "run", "verify"])
def test_negative_seed_is_a_usage_error_before_any_output(tmp_path, command):
    # run used to make an empty runs/gamma_seed-1/ and then raise deep inside
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
        result = runner.invoke(main, [command, "--seed", "-1"])
        assert result.exit_code == 2 and "--seed" in result.output
        assert not list(Path(cwd).iterdir())


class TestSimulateCommand:
    def test_writes_jsonl(self, tmp_path):
        runner = CliRunner()
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**TINY, "out_dir": str(tmp_path)}))
        result = runner.invoke(main, ["simulate", "--spec", str(spec_file), "--n", "25"])
        assert result.exit_code == 0, result.output
        data = Dataset.from_jsonl(tmp_path / "gamma_seed0.jsonl")
        assert data.n == 25 and data.T == 5

    def test_override_wins_over_spec(self, tmp_path):
        runner = CliRunner()
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**TINY, "kind": "gamma", "out_dir": str(tmp_path)}))
        result = runner.invoke(
            main, ["simulate", "--spec", str(spec_file), "--kind", "n", "--n", "10"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "n_seed0.jsonl").exists()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_n_is_a_usage_error_before_any_output(self, tmp_path, n):
        # used to end in a ParameterError traceback from dgp.simulate
        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
            result = runner.invoke(main, ["simulate", "--n", n])
            assert result.exit_code == 2 and "--n" in result.output
            assert not list(Path(cwd).iterdir())

    def test_seed_is_not_a_generator_setting(self, tmp_path):
        result = CliRunner().invoke(main, ["simulate", "--dgp", '{"seed": 3}',
                                           "--out-dir", str(tmp_path)])
        assert isinstance(result.exception, ParameterError)
        assert "unknown generator setting(s) ['seed']" in str(result.exception)
        assert not list(tmp_path.iterdir())


class TestRunCommand:
    def test_writes_artifacts(self, tmp_path):
        runner = CliRunner()
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**TINY, "out_dir": str(tmp_path)}))
        result = runner.invoke(main, ["run", "--spec", str(spec_file)])
        assert result.exit_code == 0, result.output
        out = tmp_path / "gamma_seed0"
        metrics = json.loads((out / "metrics.json").read_text())
        assert {m["learner"] for m in metrics["metrics"]} == {"wo", "ra"}
        assert all(set(m) == {"learner", "dgp", "params", "seed", "rmse", "wallclock"}
                   for m in metrics["metrics"])
        assert all(np.isfinite(m["rmse"]) for m in metrics["metrics"])
        assert metrics["spec_hash"]
        assert (out / "model_wo.npz").exists() and (out / "model_ra.npz").exists()
        with open(out / "pseudo_outcomes.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 100  # stage-2 half of n_train = 200
        assert list(rows[0]) == ["id", "gamma", "rho", "omega", "mu"]

    def test_scores_equal_run_experiment(self, tmp_path):
        # run and sweep must score one seed's cell the same way, so the
        # RMSEs are equal, not close.
        spec = ExperimentSpec(**{**TINY, "kind": "n", "out_dir": str(tmp_path)})
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        result = CliRunner().invoke(main, ["run", "--spec", str(spec_file), "--seed", "0"])
        assert result.exit_code == 0, result.output
        metrics = json.loads((tmp_path / "n_seed0" / "metrics.json").read_text())["metrics"]
        expect = run_experiment(spec.config_for(), seed=0, learners=spec.learners,
                                pseudo_config=spec.pseudo_config, window=spec.window,
                                floor=spec.floor)["rmse"]
        assert {m["learner"]: m["rmse"] for m in metrics} == expect

    def test_checkpoints_predict_as_the_record_models(self, tmp_path, monkeypatch):
        # the record run wrote its artifacts from, as _run_cell returned it
        records, run_cell = [], cli._run_cell

        def recording_run_cell(*args):
            records.append(run_cell(*args))
            return records[-1]

        monkeypatch.setattr(cli, "_run_cell", recording_run_cell)
        spec = ExperimentSpec(**{**TINY, "learners": ["wo", "ipw", "ha"],
                                 "out_dir": str(tmp_path)})
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        result = CliRunner().invoke(main, ["run", "--spec", str(spec_file)])
        assert result.exit_code == 0, result.output
        (record,) = records
        test = simulate(spec.config_for(), seed=9, n=30)
        for name, model in record["models"].items():
            saved = Network.load(tmp_path / "gamma_seed0" / f"model_{name}.npz")
            np.testing.assert_array_equal(replace(model, network=saved).predict(test),
                                          model.predict(test))

    def test_failed_cell_leaves_no_output(self, tmp_path):
        # 12 trajectories leave too few nuisance-split units per arm
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "run", "--kind", "gamma", "--dgp", '{"n_train": 12, "n_test": 40}',
            "--learners", "ra", "--window", "1", "--out-dir", str(out)])
        assert isinstance(result.exception, ParameterError)
        assert not out.exists()


class TestSweepCommand:
    def _spec(self, tmp_path, workers=None):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(
            {**TINY, "axis": "gamma", "grid": [2.0, 4.0], "out_dir": str(tmp_path)}))
        args = ["sweep", "--spec", str(spec_file)]
        if workers:
            args += ["--workers", str(workers)]
        return spec_file, args

    def test_csv_schema_and_consistency(self, tmp_path):
        runner = CliRunner()
        _, args = self._spec(tmp_path)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        csvs = list(tmp_path.glob("sweep_gamma_*.csv"))
        assert len(csvs) == 1
        with open(csvs[0]) as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0]) == ["learner", "axis_value", "rmse_mean", "rmse_sd",
                                 "rel_improv_pct", "seconds"]
        assert len(rows) == 4  # 2 learners x 2 grid values
        wo_rows = [r for r in rows if r["learner"] == "wo"]
        for r in wo_rows:
            ra = next(x for x in rows if x["learner"] == "ra"
                      and x["axis_value"] == r["axis_value"])
            expect = 100.0 * (float(ra["rmse_mean"]) - float(r["rmse_mean"])) / float(ra["rmse_mean"])
            assert abs(float(r["rel_improv_pct"]) - expect) < 0.011
        assert _check_consistency(csvs[0])
        prov = json.loads(csvs[0].with_suffix(".json").read_text())
        assert prov["failures"] == []
        assert prov["spec_hash"] in csvs[0].name
        assert [c["cell"] for c in prov["cell_seconds"]] == [[2.0, 0], [4.0, 0]]
        assert all(c["seconds"] > 0 for c in prov["cell_seconds"])

    def test_worker_count_does_not_change_results(self, tmp_path):
        runner = CliRunner()
        (tmp_path / "a").mkdir()
        _, args1 = self._spec(tmp_path / "a")
        r1 = runner.invoke(main, args1)
        (tmp_path / "b").mkdir()
        _, args2 = self._spec(tmp_path / "b", workers=2)
        r2 = runner.invoke(main, args2)
        assert r1.exit_code == 0 and r2.exit_code == 0, r1.output + r2.output
        # drop the runtime column before comparing
        rows1, rows2 = ([r[:-1] for r in _read_rows(next(d.glob("sweep_gamma_*.csv")))]
                        for d in (tmp_path / "a", tmp_path / "b"))
        assert rows1 == rows2

    def test_failed_cells_are_recorded(self, tmp_path):
        # 12 trajectories leave too few nuisance-split units per arm, so
        # every cell fails at run time; the sweep still writes its artifacts
        spec = {**TINY, "dgp": {"n_train": 12, "n_test": 40}, "axis": "gamma",
                "grid": [2.0, 4.0], "seeds": [0, 1], "out_dir": str(tmp_path)}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        result = CliRunner().invoke(main, ["sweep", "--spec", str(spec_file)])
        assert result.exit_code == 1, result.output
        csv_path = tmp_path / f"sweep_gamma_{ExperimentSpec(**spec).hash}.csv"
        assert _read_rows(csv_path) == [list(SWEEP_COLUMNS)]
        failures = json.loads(csv_path.with_suffix(".json").read_text())["failures"]
        assert [f["cell"] for f in failures] == [[2.0, 0], [2.0, 1], [4.0, 0], [4.0, 1]]
        assert all("ParameterError" in f["error"] and "units take" in f["error"]
                   for f in failures)

    def test_aggregate_sums_each_learners_own_time(self):
        spec = ExperimentSpec(**{**TINY, "axis": "gamma", "grid": [2.0, 4.0], "seeds": [0, 1]})
        results = {
            (2.0, 0): {"rmse": {"wo": 0.1, "ra": 0.3}, "seconds": {"wo": 1.0, "ra": 0.25},
                       "cell_seconds": 9.0},
            (2.0, 1): {"rmse": {"wo": 0.3, "ra": 0.5}, "seconds": {"wo": 2.0, "ra": 0.5},
                       "cell_seconds": 9.0},
            (4.0, 1): {"rmse": {"wo": 0.2, "ra": 0.1}, "seconds": {"wo": 3.0, "ra": 1.5},
                       "cell_seconds": 9.0},  # seed 0 of 4.0 failed
        }
        assert _aggregate(spec, results) == [
            ["wo", 2.0, 0.2, round(np.std([0.1, 0.3], ddof=1), 6), 50.0, 3.0],
            ["ra", 2.0, 0.4, round(np.std([0.3, 0.5], ddof=1), 6), "", 0.75],
            ["wo", 4.0, 0.2, 0.0, -100.0, 3.0],
            ["ra", 4.0, 0.1, 0.0, "", 1.5],
        ]

    def test_consistency_check_catches_a_tampered_improvement(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        rows = [list(SWEEP_COLUMNS), ["wo", 2.0, 0.08, 0.01, 20.0, 1.0],
                ["ra", 2.0, 0.1, 0.01, "", 1.0]]
        for rel, consistent in ((20.0, True), (25.0, False)):
            rows[1][4] = rel
            with open(csv_path, "w", newline="") as f:
                csv.writer(f).writerows(rows)
            assert _check_consistency(csv_path) is consistent

    def test_zero_workers_rejected_before_any_work(self, tmp_path):
        spec = ExperimentSpec(**{**TINY, "axis": "gamma", "grid": [2.0]})
        for workers in (0, 1.5):  # 1.5 used to reach the process pool
            with pytest.raises(ParameterError, match="workers"):
                run_cells(spec, workers)
        out = tmp_path / "out"
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**spec.to_dict(), "out_dir": str(out)}))
        result = CliRunner().invoke(main, ["sweep", "--spec", str(spec_file), "--workers", "0"])
        assert result.exit_code == 2 and "--workers" in result.output
        assert not out.exists()

    def test_sweep_without_axis_rejected(self, tmp_path):
        runner = CliRunner()
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**TINY, "out_dir": str(tmp_path)}))
        result = runner.invoke(main, ["sweep", "--spec", str(spec_file)])
        assert result.exit_code != 0

    def test_run_with_sweep_axis_rejected(self, tmp_path):
        # run used to train at the default gamma and record the grid as if swept
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "run", "--kind", "gamma", "--dgp", '{"n_train": 200, "n_test": 40}',
            "--learners", "ra", "--axis", "gamma", "--grid", "6.5", "--window", "1",
            "--out-dir", str(out)])
        assert result.exit_code == 2 and "sweep axis" in result.output
        assert not out.exists()


class TestVerifyCommand:
    def test_fast_verify_report(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["verify", "--fast", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert len(report) == 5 and all(r["passed"] for r in report)
        assert "orthogonality" in result.output
