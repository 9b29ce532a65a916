import csv
import io
import json
import math
import platform

import numpy as np
import pytest
import scipy

from anomsearch import rate_single, sim, unknownl_lower_bound
from anomsearch.cli import (
    _CSV_COLUMNS,
    PRESETS,
    ConfigError,
    emit_results,
    main,
    model_from_dict,
    parse_config,
    resolve_config,
    run_spec,
    run_verification,
)

TINY = {
    "policies": ["dgf"],
    "M": 3,
    "K": 1,
    "neg_log_c": [2.0],
    "trials": 25,
    "seed": 4,
}


class TestResolveConfig:
    def test_defaults_fill_gaps(self):
        spec = resolve_config({})
        assert spec.policies == ("dgf",)
        assert spec.M == 5 and spec.K == 1 and spec.L == 1
        assert spec.trials == 10_000
        assert spec.model["kind"] == "exponential"

    def test_later_layers_win(self):
        spec = resolve_config(PRESETS["fig2"], {"trials": 50}, {"seed": 1, "trials": 60})
        assert spec.trials == 60
        assert spec.seed == 1
        assert spec.policies == ("dgf", "chernoff")  # untouched layer survives

    def test_policies_accept_comma_string(self):
        spec = resolve_config({"policies": "dgf, chernoff"})
        assert spec.policies == ("dgf", "chernoff")

    def test_rejections(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config({"cells": 5})
        with pytest.raises(ConfigError, match="unknown policy"):
            resolve_config({"policies": ["sprt"]})
        with pytest.raises(ConfigError, match="repeat"):
            resolve_config({"policies": ["dgf", "dgf"]})
        with pytest.raises(ConfigError, match="must be an integer"):
            resolve_config({"M": "five"})
        with pytest.raises(ConfigError):
            resolve_config({"model": {"kind": "exponential", "lambda_f": -1, "lambda_g": 2}})
        # geometry failures surface at resolve time, not mid-run
        with pytest.raises(ConfigError, match="probes per round"):
            resolve_config({"K": 9})

    def test_model_dict_is_canonicalized(self):
        spec = resolve_config({"model": {"kind": "bernoulli", "p_f": 0.1, "p_g": 0.6}})
        assert spec.model == {"kind": "bernoulli", "p_f": 0.1, "p_g": 0.6}
        model_from_dict(spec.model)  # stays loadable

    def test_round_trips_through_dict(self):
        spec = resolve_config(PRESETS["table1_example"])
        assert parse_config(spec.to_dict()) == spec

    def test_parse_config_reads_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(TINY))
        assert parse_config(path) == resolve_config(TINY)

    def test_parse_config_error_paths(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(bad)
        listy = tmp_path / "list.json"
        listy.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config(listy)


class TestPresets:
    def test_shipped_scenarios(self):
        fig2 = resolve_config(PRESETS["fig2"])
        assert fig2.policies == ("dgf", "chernoff")
        assert (fig2.M, fig2.K) == (5, 1)
        assert fig2.neg_log_c == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert fig2.model == {"kind": "exponential", "lambda_f": 0.5, "lambda_g": 10.0}

        fig3 = resolve_config(PRESETS["fig3"])
        assert fig3.K == 2
        assert fig3.model["lambda_f"] == 2.0

        table2 = resolve_config(PRESETS["table2"])
        assert table2.neg_log_c == pytest.approx(
            tuple(r * math.log(10.0) for r in (1, 3, 5)))

        t1 = resolve_config(PRESETS["table1_example"])
        assert t1.policies == ("unknown_l", "chernoff_generic")
        assert (t1.M, t1.K, t1.L) == (3, 1, 2)
        assert t1.fixed_hypothesis == (0,)
        # count inference from the pinned hypothesis happens downstream
        assert t1.experiment_config("unknown_l").true_target_count == 1


class TestRunSpec:
    def test_row_bookkeeping(self):
        spec = resolve_config(TINY)
        progress = io.StringIO()
        rows = run_spec(spec, progress=progress)
        assert len(rows) == 1
        row = rows[0]
        assert row["policy"] == "dgf"
        assert row["trials"] == 25
        assert row["c"] == pytest.approx(math.exp(-2.0))
        model = model_from_dict(spec.model)
        expected_lb = rate_single(model, 3, 1).lower_bound_at(row["c"])
        assert row["lower_bound"] == pytest.approx(expected_lb)
        assert row["relative_loss"] == pytest.approx(
            (row["bayes_risk"] - expected_lb) / expected_lb)
        lines = progress.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("[1/1] dgf -log c=2:")

    def test_unknown_count_rows_use_declaration_bound(self):
        spec = resolve_config({
            "policies": ["unknown_l"], "M": 3, "K": 1, "L": 2,
            "model": {"kind": "bernoulli", "p_f": 0.1, "p_g": 0.6},
            "true_target_count": 1, "neg_log_c": [3.0], "trials": 20, "seed": 2,
        })
        (row,) = run_spec(spec)
        model = model_from_dict(spec.model)
        assert row["lower_bound"] == pytest.approx(
            unknownl_lower_bound(math.exp(-3.0), 1, model))


class TestMainCommand:
    def run_main(self, tmp_path, *argv):
        out = tmp_path / "out"
        code = main([*argv, "--out", str(out)])
        return code, out

    def test_writes_csv_and_summary(self, tmp_path, capsys):
        code, out = self.run_main(
            tmp_path, "--preset", "fig2", "--trials", "4", "--seed", "3")
        assert code == 0
        raw = (out / "results.csv").read_bytes()
        assert b"\r" not in raw  # LF-only, regardless of platform
        lines = raw.decode().splitlines()
        assert lines[0] == ",".join(_CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 5  # two policies, five thresholds

        with (out / "results.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        # floats are written with 17 significant digits: exact round-trip
        assert float(rows[0]["c"]) == math.exp(-1.0)
        assert rows[0]["policy"] == "dgf" and rows[5]["policy"] == "chernoff"

        summary = json.loads((out / "summary.json").read_text())
        assert summary["manifest"]["outputs"] == ["results.csv", "summary.json"]
        assert parse_config(summary["manifest"]["config"]) is not None
        assert summary["rates"]["dgf"]["regime"] == "f"
        assert len(summary["results"]) == 10

        printed = capsys.readouterr().out.splitlines()
        assert str(out / "results.csv") in printed
        assert str(out / "summary.json") in printed

    def test_manifest_config_reproduces_spec(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(TINY))
        code, out = self.run_main(tmp_path, str(config))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert parse_config(summary["manifest"]["config"]) == resolve_config(TINY)

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(TINY))
        code, out = self.run_main(
            tmp_path, str(config), "--policy", "chernoff", "--neg-log-c", "1,2")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["manifest"]["config"]["policies"] == ["chernoff"]
        assert summary["manifest"]["config"]["neg_log_c"] == [1.0, 2.0]
        assert summary["manifest"]["config"]["trials"] == 25

    def test_model_flags(self, tmp_path):
        code, out = self.run_main(
            tmp_path, "--model", "bernoulli", "--lambda-f", "0.2", "--lambda-g", "0.7",
            "--M", "3", "--neg-log-c", "2", "--trials", "5")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["manifest"]["config"]["model"] == {
            "kind": "bernoulli", "p_f": 0.2, "p_g": 0.7}

    def test_diagnostics_outputs(self, tmp_path):
        code, out = self.run_main(
            tmp_path, "--M", "3", "--neg-log-c", "2", "--trials", "40",
            "--diagnostics")
        assert code == 0
        assert (out / "trials_dgf.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "trials_dgf.csv" in summary["manifest"]["outputs"]
        assert "tau1_decay" in summary["diagnostics"]["dgf"]
        with (out / "trials_dgf.csv").open() as fh:
            trial_rows = list(csv.DictReader(fh))
        assert len(trial_rows) == 40
        assert trial_rows[0]["trial_index"] == "0"

    def test_diagnostics_reuse_the_grid_trials(self, tmp_path, monkeypatch):
        # The per-trial CSVs and the tail fit read the last threshold's trials
        # from the grid run, so each trial builds its generator once per policy.
        seeds = []
        default_rng = np.random.default_rng

        def counting_rng(seed):
            seeds.append(tuple(seed))
            return default_rng(seed)

        monkeypatch.setattr(sim.np.random, "default_rng", counting_rng)
        code, out = self.run_main(tmp_path, "--policy", "dgf,chernoff", "--M", "3",
                                  "--neg-log-c", "3,2,1", "--trials", "30", "--seed", "6",
                                  "--diagnostics")
        assert code == 0
        assert sorted(seeds) == sorted([(6, t) for t in range(30)] * 2)
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["diagnostics"]) == {"dgf", "chernoff"}
        # Each CSV holds the last threshold's trials, as run_trials gives them;
        # at -log c = 1 some of them decide wrongly.
        spec = resolve_config({"policies": ["dgf", "chernoff"], "M": 3, "neg_log_c": [3, 2, 1],
                               "trials": 30, "seed": 6, "diagnostics": True})
        for policy in spec.policies:
            with (out / f"trials_{policy}.csv").open() as fh:
                written = [tuple(row.values()) for row in csv.DictReader(fh)]
            results = sim.run_trials(spec.experiment_config(policy), math.exp(-1.0))
            assert not all(r.correct for r in results)
            assert written == [
                (str(t), "|".join(map(str, r.true_hypothesis)),
                 "|".join(map(str, r.decision or ())), str(r.tau), str(r.tau_d), str(r.tau1),
                 str(int(r.correct)))
                for t, r in enumerate(results)]

    def test_config_errors_exit_2(self, tmp_path):
        assert main(["--K", "9", "--out", str(tmp_path)]) == 2
        assert main(["--policy", "nope", "--out", str(tmp_path)]) == 2
        assert main(["--model", "bernoulli", "--out", str(tmp_path)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{never valid")
        assert main([str(bad)]) == 2
        assert main(["--preset", "fig2", "--workers", "0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--neg-log-c", "800"],  # c = exp(-800) underflows to 0.0
        ["--neg-log-c", "1e-17"],  # c = exp(-1e-17) rounds to 1.0
        ["--model", "gaussian", "--lambda-f", "0", "--lambda-g", "1e200"],  # KL overflows
        # KL of 5e-9: a trial would need about 2e8 rounds, over the round budget
        ["--model", "gaussian", "--lambda-f", "0", "--lambda-g", "1e-4", "--neg-log-c", "1"],
        # 155381 target sets: the (H, H, M) KL table alone would take 405 GiB
        ["--policy", "chernoff_generic", "--M", "18", "--L", "9", "--neg-log-c", "1"],
    ])
    def test_numeric_edge_cases_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        def no_tables(*args):
            raise AssertionError("a rejected config must not build the hypothesis tables")

        monkeypatch.setattr(sim, "hypothesis_action_kl", no_tables)
        assert main([*argv, "--trials", "2", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["--policy", "seq_dgf_l", "--M", "5", "--K", "2", "--L", "2"],
         "policy 'seq_dgf_l' probes one cell per round; got K=2"),
        (["--policy", "dgf,chernoff", "--L", "2"],
         "policy 'dgf' searches for one target; got L=2"),
        (["--policy", "chernoff_generic", "--M", "18", "--L", "9", "--neg-log-c", "1"],
         "policy 'chernoff_generic' scores every set of 1..9 of 18 cells, 155381 sets; "
         "at most 400 are supported"),
    ], ids=["one-probe", "one-target", "hypothesis-cap"])
    def test_policy_errors_name_the_policy_once(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--trials", "2", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_manifest_records_environment_and_workers(self, tmp_path):
        code, out = self.run_main(tmp_path, "--M", "3", "--neg-log-c", "2", "--trials", "4",
                                  "--workers", "2")
        assert code == 0
        manifest = json.loads((out / "summary.json").read_text())["manifest"]
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}
        assert manifest["workers"] == 2

    @pytest.mark.parametrize("content", [
        {"neg_log_c": 5},
        {"neg_log_c": "1,2"},
        {"priors": 3},
        {"policies": 5},
        {"policies": ["dgf", 5]},
        {"true_target_count": "x", "policies": ["unknown_l"], "L": 2},
        {"model": {"kind": "tabulated", "support": 5,
                   "pmf_f": [0.5, 0.5], "pmf_g": [0.2, 0.8]}},
        {"model": {"kind": ["exponential"]}},
        {"model": {"kind": "exponential", "lambda_f": True, "lambda_g": 10.0}},
        {"fixed_hypothesis": [0.5]},
        {"diagnostics": "false"},
        b"\xff\xfe{}",  # not UTF-8
    ], ids=["grid-number", "grid-string", "priors-number", "policies-number",
            "policies-item", "count-string", "support-number", "kind-list",
            "rate-bool", "cell-float", "flag-string", "not-utf8"])
    def test_wrong_typed_config_values_exit_2(self, tmp_path, capsys, content):
        config = tmp_path / "run.json"
        if isinstance(content, bytes):
            config.write_bytes(content)
        else:
            config.write_text(json.dumps(content))
        assert main([str(config), "--trials", "2", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_truncations_warn(self, tmp_path, capsys, monkeypatch):
        spec = resolve_config(TINY)
        (row,) = run_spec(spec)
        assert row["truncations"] == 0
        emit_results([row], spec, tmp_path / "clean")
        assert json.loads((tmp_path / "clean" / "summary.json").read_text())["warnings"] == []

        cut = dict(row, truncations=3)
        monkeypatch.setattr("anomsearch.cli._run_spec", lambda *args, **kwargs: ([cut], {}))
        config = tmp_path / "run.json"
        config.write_text(json.dumps(TINY))
        code, out = self.run_main(tmp_path, str(config))
        assert code == 0
        expected = "dgf at -log c = 2: 3 of 25 trials hit the round budget and count as errors"
        assert f"warning: {expected}" in capsys.readouterr().err.splitlines()
        assert json.loads((out / "summary.json").read_text())["warnings"] == [expected]
        with (out / "results.csv").open() as fh:
            assert next(csv.DictReader(fh))["truncations"] == "3"

    def test_usage_errors_exit_2(self):
        assert main(["--preset", "not-a-preset"]) == 2
        assert main(["--unknown-flag"]) == 2

    def test_io_errors_exit_3(self, tmp_path):
        assert main([str(tmp_path / "missing.json")]) == 3
        blocker = tmp_path / "blocker"
        blocker.write_text("plain file")
        config = tmp_path / "run.json"
        config.write_text(json.dumps(TINY))
        assert main([str(config), "--out", str(blocker / "sub")]) == 3


def test_verification_suite_passes():
    buf = io.StringIO()
    assert run_verification(buf) == 0
    report = buf.getvalue()
    assert "FAIL" not in report
    assert report.strip().endswith("all checks passed")
