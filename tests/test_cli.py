import csv
import dataclasses
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy

from anomsearch import bayes_lower_bound, cli, rate_single, sim, stream, unknownl_lower_bound
from anomsearch.cli import (
    _CSV_COLUMNS,
    PRESETS,
    ConfigError,
    _write_trial_csv,
    emit_results,
    main,
    model_from_dict,
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
        assert spec.model.kind == "exponential"
        # every default, in the key order of the manifest's config block
        assert list(spec.to_dict().items()) == [
            ("policies", ("dgf",)), ("M", 5), ("K", 1), ("L", 1),
            ("model", {"kind": "exponential", "lambda_f": 0.5, "lambda_g": 10.0}),
            ("neg_log_c", (1.0, 2.0, 3.0, 4.0, 5.0)), ("trials", 10_000), ("seed", 271_828),
            ("priors", None), ("fixed_hypothesis", None), ("true_target_count", None),
            ("diagnostics", False),
        ]
        # null for a key whose default is not None keeps that default
        for key, value in spec.to_dict().items():
            if value is not None:
                assert resolve_config({key: None}).to_dict()[key] == value

    def test_later_layers_win(self):
        spec = resolve_config(PRESETS["fig2"], {"trials": 50}, {"seed": 1, "trials": 60})
        assert spec.trials == 60
        assert spec.seed == 1
        assert spec.policies == ("dgf", "chernoff")  # untouched layer survives
        # null is kept, over earlier layers, for the keys whose default is None
        table1 = PRESETS["table1_example"]
        assert resolve_config(table1, {"fixed_hypothesis": None}).fixed_hypothesis is None
        assert resolve_config(table1, {"true_target_count": 1},
                              {"true_target_count": None}).true_target_count is None
        assert resolve_config({"priors": [0.2] * 5}, {"priors": None}).priors is None

    def test_policies_accept_comma_string(self):
        spec = resolve_config({"policies": "dgf, chernoff"})
        assert spec.policies == ("dgf", "chernoff")

    def test_rejections(self):
        with pytest.raises(ConfigError) as unknown:
            resolve_config({"cells": 5})
        assert str(unknown.value) == (
            "unknown config key 'cells'; expected one of ('policies', 'M', 'K', 'L', "
            "'model', 'neg_log_c', 'trials', 'seed', 'priors', 'fixed_hypothesis', "
            "'true_target_count', 'diagnostics')")
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

    @pytest.mark.parametrize("key, value, message", [
        ("M", "five", "M must be an integer, got 'five'"),
        ("K", 1.0, "K must be an integer, got 1.0"),
        ("L", True, "L must be an integer, got True"),
        ("trials", 20.0, "trials must be an integer, got 20.0"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("fixed_hypothesis", [1.5], "fixed_hypothesis must be null or a list of cell indices, "
                                    "got (1.5,)"),
        ("fixed_hypothesis", "0", "fixed_hypothesis must be null or a list of cell indices, "
                                  "got '0'"),
        ("true_target_count", 1.0, "true_target_count must be null or an integer, got 1.0"),
        ("diagnostics", "yes", "diagnostics must be true or false, got 'yes'"),
        ("policies", 5, "policies must be a comma-separated string or a list of policy names, "
                        "got 5"),
        ("policies", ["dgf", 1], "policies must be a comma-separated string or a list of "
                                 "policy names, got ['dgf', 1]"),
    ], ids=["M", "K", "L", "trials", "seed", "fixed_hypothesis-list", "fixed_hypothesis-str",
            "true_target_count", "diagnostics", "policies-int", "policies-list"])
    def test_one_bad_key_is_named_with_what_it_must_hold(self, key, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            resolve_config({key: value})

    def test_model_dict_is_canonicalized(self):
        spec = resolve_config({"model": {"kind": "bernoulli", "p_f": 0.1, "p_g": 0.6}})
        assert spec.to_dict()["model"] == {"kind": "bernoulli", "p_f": 0.1, "p_g": 0.6}
        assert model_from_dict(spec.to_dict()["model"]) == spec.model  # stays loadable

    def test_round_trips_through_dict(self):
        spec = resolve_config(PRESETS["table1_example"])
        assert resolve_config(spec.to_dict()) == spec

    def test_parse_config_reads_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(TINY))
        with mock.patch.object(cli, "_run_spec", wraps=cli._run_spec) as runs:
            assert main([str(path), "--out", str(tmp_path / "out")]) == 0
        assert runs.call_args.args[0] == resolve_config(TINY)

    def test_parse_config_error_paths(self, tmp_path, capsys):
        out = tmp_path / "out"
        absent = tmp_path / "absent.json"
        assert main([str(absent), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {absent}: ")
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main([str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: config file {bad} is not valid JSON: ")
        listy = tmp_path / "list.json"
        listy.write_text("[1, 2]")
        assert main([str(listy), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: config file {listy} must hold a JSON object\n")
        assert not out.exists()  # each fails before the output directory is made


class TestPresets:
    def test_shipped_scenarios(self):
        fig2 = resolve_config(PRESETS["fig2"])
        assert fig2.policies == ("dgf", "chernoff")
        assert (fig2.M, fig2.K) == (5, 1)
        assert fig2.neg_log_c == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert fig2.to_dict()["model"] == {"kind": "exponential", "lambda_f": 0.5, "lambda_g": 10.0}

        fig3 = resolve_config(PRESETS["fig3"])
        assert fig3.K == 2
        assert fig3.model.lambda_f == 2.0

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
        expected_lb = rate_single(spec.model, 3, 1).lower_bound_at(row["c"])
        assert row["lower_bound"] == pytest.approx(expected_lb)
        assert row["relative_loss"] == pytest.approx(
            (row["bayes_risk"] - expected_lb) / expected_lb)
        lines = progress.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("[1/1] dgf -log c=2:")

    def test_progress_stops_after_a_closed_pipe_and_leaves_the_stream(self):
        # A library caller's stream whose reader has gone: the run finishes,
        # progress is tried once, and the stream is not closed or replaced.
        class Gone(io.StringIO):
            tries = 0

            def write(self, text):
                Gone.tries += 1
                raise BrokenPipeError

        spec = resolve_config(TINY, {"neg_log_c": [1.0, 2.0, 3.0]})
        progress = Gone()
        assert len(run_spec(spec, progress=progress)) == 3
        assert Gone.tries == 1
        assert not progress.closed

    def test_unknown_count_rows_use_declaration_bound(self):
        spec = resolve_config({
            "policies": ["unknown_l"], "M": 3, "K": 1, "L": 2,
            "model": {"kind": "bernoulli", "p_f": 0.1, "p_g": 0.6},
            "true_target_count": 1, "neg_log_c": [3.0], "trials": 20, "seed": 2,
        })
        (row,) = run_spec(spec)
        assert row["lower_bound"] == pytest.approx(
            unknownl_lower_bound(math.exp(-3.0), 1, spec.model))


    @pytest.mark.parametrize("layer", [TINY, {**PRESETS["table1_example"], "trials": 5}],
                             ids=["dgf", "table1_example"])
    def test_runs_and_emits_with_the_resolved_model(self, tmp_path, layer):
        # resolve_config builds the model once; running and emitting reuse it.
        spec = resolve_config(layer)
        with mock.patch.object(cli, "model_from_dict", wraps=cli.model_from_dict) as built:
            emit_results(run_spec(spec), spec, tmp_path)
        assert built.call_count == 0

    def test_diagnostics_write_each_policy_while_its_grid_lives(self, tmp_path, monkeypatch):
        # Without an output directory a run has no diagnostics and writes no file.
        monkeypatch.chdir(tmp_path)
        layer = {**TINY, "policies": ["dgf", "chernoff"]}
        plain, extra = cli._run_spec(resolve_config(layer), 1, None)
        assert len(plain) == 2 and extra is None
        assert not list(tmp_path.rglob("trials_*.csv"))
        # With one, each policy's CSV is on disk and its grid is gone (a view
        # kept past its turn would keep it alive) before the next grid is built.
        out = tmp_path / "out"
        out.mkdir()
        seen, taus, run_grid = [], [], sim._run_grid

        def recording_run_grid(cfg, costs, workers=1):
            seen.append((cfg.policy, sorted(path.name for path in out.iterdir()),
                         [tau() is None for tau in taus]))
            grid = run_grid(cfg, costs, workers)
            # The array that owns tau's memory, which a row view of tau refers to.
            taus.append(weakref.ref(grid.tau if grid.tau.base is None else grid.tau.base))
            return grid

        monkeypatch.setattr(sim, "_run_grid", recording_run_grid)
        rows, extra = cli._run_spec(resolve_config(layer, {"diagnostics": True}), 1, None, out)
        assert seen == [("dgf", [], []), ("chernoff", ["trials_dgf.csv"], [True])]
        assert rows == plain
        assert list(extra["diagnostics"]) == ["dgf", "chernoff"]
        assert [entry["per_trial_csv"] for entry in extra["diagnostics"].values()] == [
            "trials_dgf.csv", "trials_chernoff.csv"]


class TestMainCommand:
    def run_main(self, tmp_path, *argv):
        out = tmp_path / "out"
        code = main([*argv, "--out", str(out)])
        return code, out

    def test_verify_preset_reports_to_the_current_stdout(self, capsys):
        assert main(["--preset", "verify"]) == 0
        assert capsys.readouterr().out.strip().endswith("all checks passed")

    def test_verify_preset_reports_failures_and_exits_1(self, capsys, monkeypatch):
        # A quadrature whose D(g||f) is off by 1e-3 fails one check per model.
        quadrature = cli.kl_quadrature

        def shifted(model):
            d_gf, d_fg = quadrature(model)
            return d_gf + 1e-3, d_fg

        monkeypatch.setattr(cli, "kl_quadrature", shifted)
        assert main(["--preset", "verify"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        failed = [line for line in lines if line.startswith("FAIL quadrature d_gf ")]
        assert len(failed) == 4
        assert not any(line.startswith("FAIL") and line not in failed for line in lines)
        assert lines[-1].startswith("4 check(s) failed: ['quadrature d_gf exponential(0.5, 10.0)'")

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
        assert resolve_config(summary["manifest"]["config"]) is not None
        assert summary["rates"]["dgf"]["regime"] == "f"
        assert len(summary["results"]) == 10

        printed = capsys.readouterr().out.splitlines()
        assert str(out / "results.csv") in printed
        assert str(out / "summary.json") in printed

    def test_tie_reports_the_regime_the_engine_probes(self, tmp_path):
        # Gaussian means 0 and 0.3 give D(g||f) = D(f||g) = 0.045, an exact
        # regime tie at M = 6, L = 3, which the engine probes as "g", at K
        # = L the top three cells, so the rate is 0.045.
        code, out = self.run_main(
            tmp_path, "--policy", "dgf_l", "--model", "gaussian", "--lambda-f", "0",
            "--lambda-g", "0.3", "--M", "6", "--K", "3", "--L", "3", "--neg-log-c", "2",
            "--trials", "20")
        assert code == 0
        rates = json.loads((out / "summary.json").read_text())["rates"]["dgf_l"]
        assert (rates["regime"], rates["i_star"]) == ("g", 0.045)
        with (out / "results.csv").open() as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["lower_bound"]) == bayes_lower_bound(float(row["c"]), 0.045)

    def test_manifest_config_reproduces_spec(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(TINY))
        code, out = self.run_main(tmp_path, str(config))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert resolve_config(summary["manifest"]["config"]) == resolve_config(TINY)

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
        trial_generators = stream._trial_generators

        def counting_generators(seed, trials):
            seeds.extend((seed, t) for t in trials)
            return trial_generators(seed, trials)

        monkeypatch.setattr(stream, "_trial_generators", counting_generators)
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
                 str(int(r.correct)), str(int(r.truncated)))
                for t, r in enumerate(results)]

    def test_trial_csv_tells_truncated_from_undeclared(self, tmp_path):
        # unknown_l may stop declaring no cell, and a truncated trial declares
        # none either; both leave `decision` empty and only `truncated` differs.
        config = {"policies": ["unknown_l"], "M": 3, "L": 2, "true_target_count": 1,
                  "model": {"kind": "bernoulli", "p_f": 0.1, "p_g": 0.6},
                  "neg_log_c": [0.7], "trials": 400, "seed": 1, "diagnostics": True}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out = self.run_main(tmp_path, str(path))
        assert code == 0

        def rows(csv_path):
            with csv_path.open() as fh:
                return list(csv.DictReader(fh))

        written = rows(out / "trials_unknown_l.csv")
        undeclared = [row for row in written if row["decision"] == ""]
        assert len(undeclared) == 113
        assert {row["truncated"] for row in written} == {"0"}
        assert {row["correct"] for row in undeclared} == {"0"}

        cut_config = dataclasses.replace(
            resolve_config(config).experiment_config("unknown_l"), max_rounds=2)
        _write_trial_csv(tmp_path / "cut.csv",
                         sim._row(sim._run_grid(cut_config, (math.exp(-0.7),)), 0))
        cut = [row for row in rows(tmp_path / "cut.csv") if row["truncated"] == "1"]
        assert cut
        assert all(row["decision"] == "" and row["correct"] == "0" for row in cut)

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
        # 155381 target sets: scoring them would take 1.3 GB per round
        ["--policy", "chernoff_generic", "--M", "18", "--L", "9", "--neg-log-c", "1"],
        # 2^31 cells: the priors tuple alone would take 17 GB
        ["--M", "2147483648", "--neg-log-c", "1"],
        # 1025 grid points: one trial's rows would overfill a 1024-row chunk
        ["--neg-log-c", ",".join(["1"] * 1025)],
        # D(g||f) = 1e300: the risk floor at c = exp(-100) underflows to 0.0
        ["--model", "exponential", "--lambda-f", "1e300", "--lambda-g", "1",
         "--neg-log-c", "100"],
        ["--model", "exponential", "--lambda-f", "1e300", "--lambda-g", "1",
         "--neg-log-c", "100", "--policy", "unknown_l", "--M", "3", "--L", "2"],
        ["--neg-log-c", "720"],  # c = exp(-720) is subnormal
        ["--neg-log-c=-1000"],  # c = exp(1000) overflows
        # sigma ** 2 underflows to 0.0; no flag sets sigma, so a config file does
        [{"model": {"kind": "gaussian", "mu_f": 0, "mu_g": 1, "sigma": 1e-200}}],
    ])
    def test_numeric_edge_cases_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        def no_tables(*args):
            raise AssertionError("a rejected config must not build the hypothesis tables")

        if isinstance(argv[0], dict):  # a config file's content
            config = tmp_path / "run.json"
            config.write_text(json.dumps(argv[0]))
            argv = [str(config), *argv[1:]]
        monkeypatch.setattr(sim, "_generic_tables", no_tables)
        assert main([*argv, "--trials", "2", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_outcome_memory_bound_exits_2_before_the_first_trial(self, tmp_path, capsys,
                                                                 monkeypatch):
        def no_generators(*args):
            raise AssertionError("a rejected config must not start a trial")

        monkeypatch.setattr(stream, "_trial_generators", no_generators)
        # 28 bytes per (cost, trial) pair of five cells: 14 GB of outcomes.
        assert main(["--preset", "fig2", "--trials", "100000000", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: policy 'dgf': 100000000 trials at 5 costs on M = 5 cells would keep "
            "13 GiB of trial outcomes, more than 1 GiB; use fewer trials, a shorter -log c "
            "grid or fewer cells\n")
        # 10^320 trials: a GiB figure past the float range.
        trials = "1" + "0" * 320
        assert main(["--preset", "fig2", "--trials", trials, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: trials must be at most {sim._MAX_OUTCOME_BYTES}, got {trials}\n")

    def test_outcome_memory_bound_admits_the_shipped_runs(self):
        bound = sim._MAX_OUTCOME_BYTES
        for name in ("fig2", "fig3", "fig4", "table2", "table1_example"):
            resolve_config(PRESETS[name], {"diagnostics": True})
            resolve_config(PRESETS[name], {"diagnostics": True, "trials": 100_000})
        # 1024 trials at five costs on 10 000 cells: about 100 MB of masks.
        resolve_config({"M": 10_000, "trials": 1024, "diagnostics": True})
        # The bound itself: 2M + 18 bytes per pair, 8 more for tau1.
        for policies, diagnostics, per_pair in (("dgf", False, 28), ("dgf", True, 36),
                                                ("dgf_l", True, 28)):
            layer = {"policies": policies, "M": 5, "K": 1, "L": 1 if policies == "dgf" else 2,
                     "neg_log_c": [1.0], "diagnostics": diagnostics}
            resolve_config(layer, {"trials": bound // per_pair})
            with pytest.raises(ConfigError, match="GiB of trial outcomes"):
                resolve_config(layer, {"trials": bound // per_pair + 1})

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

    @pytest.mark.parametrize("lambda_g", ["1e9", "1.0000001e9"], ids=["inside", "outside"])
    def test_chernoff_generic_runs_past_the_lp_entry_bound(self, tmp_path, capsys, lambda_g):
        # D(f||g) is 1e15 - 35.5 at a rate of 1e9, just below the 1e15 from
        # which HiGHS takes a constraint entry as infinite, and 1.0000001e15
        # past it, where an LP set-up failed; the closed form runs both.
        argv = ["--policy", "chernoff_generic", "--M", "2", "--L", "1", "--model", "exponential",
                "--lambda-f", "1e-06", "--lambda-g", lambda_g, "--neg-log-c", "1"]
        assert main([*argv, "--trials", "1", "--out", str(tmp_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err

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
        # Integers that no float holds.
        {"neg_log_c": [10 ** 400]},
        {"priors": [10 ** 400, 1, 1, 1, 1]},
        {"model": {"kind": "exponential", "lambda_f": 10 ** 400, "lambda_g": 1}},
        {"model": {"kind": "gaussian", "mu_f": 0, "mu_g": 1, "sigma": 10 ** 400}},
        {"model": {"kind": "bernoulli", "p_f": 0.1, "p_g": -10 ** 400}},
        {"model": {"kind": "tabulated", "support": [0, 10 ** 400],
                   "pmf_f": [0.5, 0.5], "pmf_g": [0.2, 0.8]}},
        # Model parameters that are not numbers.
        {"model": {"kind": "tabulated", "support": "01", "pmf_f": [0.5, 0.5], "pmf_g": [0.1, 0.9]}},
        {"model": {"kind": "tabulated", "support": [0, "1"],
                   "pmf_f": [0.5, 0.5], "pmf_g": [0.1, 0.9]}},
        {"model": {"kind": "tabulated", "support": [0, True],
                   "pmf_f": [0.5, 0.5], "pmf_g": [0.1, 0.9]}},
        {"model": {"kind": "tabulated", "support": [0, 1],
                   "pmf_f": ["0.5", 0.5], "pmf_g": [0.1, 0.9]}},
        {"model": {"kind": "bernoulli", "p_f": "0.1", "p_g": 0.9}},
        {"model": {"kind": "gaussian", "mu_f": 0, "mu_g": 1, "sigma": None}},
        # A list where a number is due.
        {"model": {"kind": "bernoulli", "p_f": [0.1], "p_g": 0.9}},
        {"model": {"kind": "exponential", "lambda_f": [1, 2], "lambda_g": 10.0}},
        {"model": {"kind": "gaussian", "mu_f": [0], "mu_g": 1}},
    ], ids=["grid-number", "grid-string", "priors-number", "policies-number",
            "policies-item", "count-string", "support-number", "kind-list",
            "rate-bool", "cell-float", "flag-string", "not-utf8", "grid-huge-int",
            "priors-huge-int", "exponential-huge-int", "gaussian-huge-int",
            "bernoulli-huge-int", "tabulated-huge-int", "support-string",
            "support-string-item", "support-bool-item", "pmf-string-item",
            "probability-string", "sigma-null", "probability-list", "rate-list",
            "mean-list"])
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
        monkeypatch.setattr("anomsearch.cli._run_spec", lambda *args, **kwargs: ([cut], None))
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
        # An unusable --out fails before the first trial runs.
        with mock.patch.object(sim, "_run_grid", wraps=sim._run_grid) as grids:
            assert main([str(config), "--out", str(blocker / "sub")]) == 3
        assert grids.call_count == 0


    def test_exponential_ratio_overflow_names_both_rates(self, tmp_path, capsys):
        code, out = self.run_main(tmp_path, "--model", "exponential", "--lambda-f", "1e-300",
                                  "--lambda-g", "1e300")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "lambda_f" in err and "lambda_g" in err and "ratio overflows" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestToDict:
    SPECS = {"default": [], **{name: [layer] for name, layer in PRESETS.items()},
             "priors": [{"priors": [0.1, 0.2, 0.3, 0.2, 0.2]}],
             "fixed_hypothesis": [{"M": 4, "fixed_hypothesis": [2]}]}

    @pytest.mark.parametrize("name", SPECS)
    def test_matches_the_deep_copied_form(self, name):
        spec = resolve_config(*self.SPECS[name])
        expected = {**dataclasses.asdict(spec), "model": cli.model_to_dict(spec.model)}
        assert spec.to_dict() == expected
        assert json.dumps(spec.to_dict(), indent=2) == json.dumps(expected, indent=2)

    def test_defaults_are_unchanged(self):
        spec = cli.RunSpec()
        assert cli._DEFAULTS == {**dataclasses.asdict(spec),
                                 "model": cli.model_to_dict(spec.model)}


class TestOutputFiles:
    @staticmethod
    def contents(out):
        """Every file under out by name, summary.json without its timestamp line."""
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        files["summary.json"] = b"".join(
            line for line in files["summary.json"].splitlines(keepends=True)
            if not line.lstrip().startswith(b'"created": '))
        return files

    @pytest.mark.parametrize("first, second", [
        (["--neg-log-c", "1,2,3,4,5", "--trials", "30"], ["--neg-log-c", "2", "--trials", "30"]),
        (["--trials", "200", "--diagnostics"], ["--trials", "20", "--diagnostics"]),
    ], ids=["grid", "diagnostics"])
    def test_rerun_over_a_longer_run_matches_a_fresh_directory(self, tmp_path, first, second):
        common = ["--policy", "dgf,chernoff", "--M", "3", "--seed", "5"]
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main([*common, *first, "--out", str(reused)]) == 0
        longer = {path.name: path.stat().st_size for path in reused.iterdir()}
        assert main([*common, *second, "--out", str(reused)]) == 0
        assert main([*common, *second, "--out", str(fresh)]) == 0
        assert self.contents(reused) == self.contents(fresh)
        # Every file shrank, so the rerun had old bytes to cut.
        assert all(path.stat().st_size < longer[path.name] for path in reused.iterdir())

    def test_new_files_get_the_mode_open_gives(self, tmp_path):
        spec = resolve_config(TINY)
        (row,) = run_spec(spec)
        for umask in (0o022, 0o077):
            old = os.umask(umask)
            try:
                out = tmp_path / f"umask-{umask:o}"
                emit_results([row], spec, out)
                with open(tmp_path / f"reference-{umask:o}", "w"):
                    pass
            finally:
                os.umask(old)
            expected = (tmp_path / f"reference-{umask:o}").stat().st_mode
            assert expected & 0o777 == 0o666 & ~umask
            for path in out.iterdir():
                assert path.stat().st_mode == expected, path.name

    def test_no_output_is_opened_with_o_trunc(self, tmp_path):
        spec = resolve_config({**TINY, "policies": ["dgf", "chernoff"], "diagnostics": True})
        out = tmp_path / "out"
        out.mkdir()
        flags: dict[str, list[int]] = {}
        os_open = os.open

        def recording_open(path, flag, *args, **kwargs):
            flags.setdefault(Path(path).name, []).append(flag)
            return os_open(path, flag, *args, **kwargs)

        for _ in range(2):  # into a new directory, then over the same files
            with mock.patch.object(os, "open", recording_open):
                rows, extra = cli._run_spec(spec, 1, None, out)
                emit_results(rows, spec, out, extra=extra)
        names = ["results.csv", "summary.json", "trials_dgf.csv", "trials_chernoff.csv"]
        assert sorted(flags) == sorted(names)
        for name in names:
            assert len(flags[name]) == 2
            assert all(flag & os.O_WRONLY and not flag & os.O_TRUNC for flag in flags[name])

    def test_short_writes_still_write_every_byte(self, tmp_path):
        spec = resolve_config({**TINY, "policies": ["dgf", "chernoff"], "diagnostics": True})
        os_write = os.write
        calls: list[int] = []

        def short_write(fd, data):  # at most 3 bytes per call, as a pipe or a signal may give
            calls.append(fd)
            return os_write(fd, bytes(data[:3]))

        def write(out, patched):
            out.mkdir(exist_ok=True)
            with mock.patch.object(os, "write", short_write if patched else os_write):
                rows, extra = cli._run_spec(spec, 1, None, out)
                emit_results(rows, spec, out, extra=extra)
            return self.contents(out)

        whole = write(tmp_path / "whole", False)
        assert write(tmp_path / "short", True) == whole
        assert len(calls) >= sum(len(data) for data in whole.values()) // 3
        # Over the same files again, which are cut back to the new length.
        (tmp_path / "short" / "results.csv").write_bytes(b"x" * 100_000)
        assert write(tmp_path / "short", True) == whole

    def test_an_unwritable_output_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(TINY))
        assert main([str(config), "--out", str(out)]) == 3
        assert "i/o error: " in capsys.readouterr().err


class TestRendering:
    """The CSV outputs are rendered without the csv encoder, to the bytes it
    writes; summary.json is ``json.dumps(summary, indent=2)`` and a newline."""

    def test_summaries_match_json_dumps(self, tmp_path):
        spec = resolve_config({**TINY, "policies": ["dgf", "chernoff"], "neg_log_c": [1.0, 2.0],
                               "diagnostics": True})
        rows, extra = cli._run_spec(spec, 1, None, tmp_path)
        rows[1] = dict(rows[1], truncations=3)  # so that the summary carries a warning
        rendered = []
        dumps = cli.json.dumps

        def recording(value, **kwargs):
            rendered.append(value)
            return dumps(value, **kwargs)

        with mock.patch.object(cli.json, "dumps", recording):
            emit_results(rows, spec, tmp_path, extra=extra, workers=2)
        (summary,) = rendered
        assert summary["warnings"] and summary["diagnostics"]["dgf"]["tau1_decay"]
        assert (tmp_path / "summary.json").read_bytes() == (
            json.dumps(summary, indent=2) + "\n").encode()

    @staticmethod
    def csv_writer_bytes(rows):
        fh = io.StringIO(newline="")
        csv.writer(fh, lineterminator="\n").writerows(rows)
        return fh.getvalue().encode()

    def test_results_csv_matches_csv_writer(self, tmp_path):
        spec = resolve_config({**TINY, "policies": ["dgf", "chernoff"], "neg_log_c": [1.0, 2.0]})
        rows = run_spec(spec)
        rows[0] = dict(rows[0], truncations=7, relative_loss=math.nan, ci_high=math.inf)
        emit_results(rows, spec, tmp_path)
        expected = self.csv_writer_bytes(
            [_CSV_COLUMNS, *([cli._fmt(row[col]) for col in _CSV_COLUMNS] for row in rows)])
        assert (tmp_path / "results.csv").read_bytes() == expected

    def test_trial_csvs_match_csv_writer(self, tmp_path):
        # unknown_l: tau1 untracked, some trials stop declaring no cell, and a
        # round budget of 2 truncates others; dgf with diagnostics tracks tau1.
        unknown = resolve_config({
            "policies": ["unknown_l"], "M": 3, "L": 2, "true_target_count": 1,
            "model": {"kind": "bernoulli", "p_f": 0.1, "p_g": 0.6}, "neg_log_c": [0.7],
            "trials": 200, "seed": 1}).experiment_config("unknown_l")
        tracked = resolve_config({**TINY, "diagnostics": True}).experiment_config("dgf")
        pairs = resolve_config({**TINY, "policies": ["dgf_l"], "M": 5, "K": 2, "L": 2})
        cases = {
            "cut": (dataclasses.replace(unknown, max_rounds=2), math.exp(-0.7)),
            "undeclared": (unknown, math.exp(-0.7)),
            "tau1": (tracked, math.exp(-2.0)),
            "joined": (pairs.experiment_config("dgf_l"), math.exp(-2.0)),
        }
        seen = set()
        for name, (cfg, cost) in cases.items():
            trials = sim._row(sim._run_grid(cfg, (cost,)), 0)
            path = tmp_path / f"{name}.csv"
            _write_trial_csv(path, trials)
            n = len(trials.tau)
            tau1 = [""] * n if trials.tau1 is None else trials.tau1.tolist()

            def cells(masks):
                return ["|".join(str(c) for c in np.flatnonzero(mask)) for mask in masks]

            expected = self.csv_writer_bytes([
                ("trial_index", "true_hyp", "decision", "tau", "tau_d", "tau1", "correct",
                 "truncated"),
                *zip(range(n), cells(trials.truth), cells(trials.decided), trials.tau.tolist(),
                     trials.tau_d.tolist(), tau1, trials.correct.astype(int).tolist(),
                     trials.truncated.astype(int).tolist())])
            assert path.read_bytes() == expected, name
            if trials.truncated.any():
                seen.add("truncated")
            if (~trials.truncated & ~trials.decided.any(axis=1)).any():
                seen.add("undeclared")
            seen.add("untracked" if trials.tau1 is None else "tracked")
            if (trials.truth.sum(axis=1) > 1).any() and (trials.decided.sum(axis=1) > 1).any():
                seen.add("joined")
        assert seen == {"truncated", "undeclared", "untracked", "tracked", "joined"}


_SCIPY_LOADS = """
import sys
from anomsearch.cli import main
print(sorted(m for m in sys.modules if m.startswith("scipy")),
      "anomsearch.policies" in sys.modules, flush=True)
code = main(["--M", "3", "--neg-log-c", "2", "--trials", "2", "--out", sys.argv[1]])
print([m for m in ("anomsearch.policies", "concurrent.futures.process", "multiprocessing",
                   "logging") if m in sys.modules], flush=True)
print("scipy" in sys.modules, code, flush=True)
"""


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats alone is about half a second of start-up and nothing needs
    # it; SciPy's top level is several milliseconds more, spent only to read
    # its version into the manifest, so the import loads no SciPy at all.
    # Nor does a one-worker run load the process pool's modules, or the
    # scalar step rules of anomsearch.policies, which only the tests and the
    # layer tracer read.
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _SCIPY_LOADS, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[0] == "[] False"
    assert out.splitlines()[-2:] == ["[]", "True 0"]
    manifest = json.loads((tmp_path / "summary.json").read_text())["manifest"]
    assert manifest["environment"]["scipy"] == scipy.__version__


_SOLVER_LOADS = """
import io, sys
from pathlib import Path
from anomsearch.cli import PRESETS, _run_spec, emit_results, resolve_config, run_verification

def loaded():
    return sorted({m.split(".")[1] for m in sys.modules
                   if m.split(".")[:2] in (["scipy", "optimize"], ["scipy", "integrate"],
                                           ["scipy", "stats"])})

def run(name, *layers):
    # What main() does with a resolved config, minus the printing.
    spec = resolve_config({"neg_log_c": [2.0], "trials": 2, "seed": 3}, *layers)
    out = Path(sys.argv[1]) / name
    out.mkdir()
    rows, extra = _run_spec(spec, 1, None, out if spec.diagnostics else None)
    emit_results(rows, spec, out, extra=extra)

run("single", {"policies": ["dgf", "chernoff"], "M": 3, "diagnostics": True})
run("multi", {"policies": ["dgf_l", "seq_dgf_l"], "M": 4, "L": 2})
run("unknown", {"policies": ["unknown_l"], "M": 3, "L": 2, "true_target_count": 1})
print(loaded())
run("generic", PRESETS["table1_example"], {"policies": ["chernoff_generic"]})
print(loaded())
print(run_verification(io.StringIO()))
print(loaded())
"""


def test_scipy_solvers_load_only_for_verify(tmp_path):
    # scipy.optimize and scipy.integrate are about two thirds of start-up
    # and half the peak memory of a run; chernoff_generic's mixtures come
    # from a closed form, so only the LP and quadrature checks load them.
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _SOLVER_LOADS, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "[]", "0", "['integrate', 'optimize']"]


def test_verification_suite_passes():
    buf = io.StringIO()
    assert run_verification(buf) == 0
    report = buf.getvalue()
    assert "FAIL" not in report
    assert report.strip().endswith("all checks passed")


def test_resolver_refuses_with_the_library_warning_and_advice(monkeypatch):
    # A trial at -log c = 30 needs about 1.26e9 rounds on near-equal laws.
    # Under a budget of 10 rounds, the library runs the config and warns,
    # and the resolver refuses it with the same sentence and its advice.
    layer = {"policies": "dgf", "M": 5, "K": 1, "neg_log_c": [30.0], "trials": 2,
             "model": {"kind": "bernoulli", "p_f": 0.3, "p_g": 0.3001}}
    experiment_config = cli.RunSpec.experiment_config
    monkeypatch.setattr(cli.RunSpec, "experiment_config", lambda self, policy: dataclasses.replace(
        experiment_config(self, policy), max_rounds=10))
    config = sim.ExperimentConfig(num_cells=5, probes_per_round=1, policy="dgf",
                                  model=model_from_dict(layer["model"]), neg_log_c=(30.0,),
                                  trials=2, max_rounds=10)
    with pytest.warns(RuntimeWarning) as record:
        sim.run_experiment(config)
    (warning,) = record
    with pytest.raises(ConfigError) as refused:
        resolve_config(layer)
    assert str(refused.value) == (f"{warning.message}; use a larger cost or a more "
                                  f"informative model")
    assert str(warning.message).startswith("policy 'dgf': at -log c = 30 a trial needs about ")


@pytest.mark.parametrize("argv", [["--preset", "verify"],
                                  ["--preset", "fig2", "--trials", "200", "--out", "{out}"]],
                         ids=["verify", "run"])
def test_closed_stdout_exits_3_without_a_traceback(argv, tmp_path):
    # As in `anomsearch ... | head -0`: the reader is gone before the first line.
    src = Path(__file__).resolve().parents[1] / "src"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "anomsearch.cli",
                               *(arg.format(out=tmp_path) for arg in argv)],
                              stdout=write, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)))
    finally:
        os.close(write)
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert proc.returncode == 3
    assert (tmp_path / "results.csv").exists() == (argv[1] == "fig2")


def _run_with_closed_stderr(code, stderr=None):
    """Run ``code`` in a new interpreter whose stderr is ``stderr``, by default
    a pipe with no reader, as in `anomsearch ... 2>&1 >/dev/null | head -0`."""
    src = Path(__file__).resolve().parents[1] / "src"
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              stderr=write if stderr is None else stderr, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)))
    finally:
        os.close(write)


# Run the files, then point fd 2 at a pipe with no reader: the reader has left
# after the last progress line and before the `warning:` lines.
_LEAVE_AFTER_THE_RUN = """
import os
emit = cli.emit_results
def emit_results(*args, **kwargs):
    manifest = emit(*args, **kwargs)
    read, write = os.pipe()
    os.close(read)
    os.dup2(write, 2)
    return manifest
cli.emit_results = emit_results
"""


@pytest.mark.parametrize("flags", [[], ["--diagnostics"]], ids=["run", "diagnostics"])
@pytest.mark.parametrize("after_the_run", [False, True], ids=["closed", "left"])
def test_closed_stderr_still_writes_the_run(after_the_run, flags, tmp_path):
    # Progress, the diagnostics lines and the `warning:` lines after the run
    # are only diagnostic, so a stderr with no reader must not stop the run.
    # Every row reports truncations, so that each run ends in warnings.
    argv = ["--preset", "fig2", "--trials", "200", "--out", str(tmp_path), *flags]
    proc = _run_with_closed_stderr(
        "from anomsearch import cli\n"
        "cli._truncation_warnings = lambda rows: [str(row['neg_log_c']) for row in rows]\n"
        + (_LEAVE_AFTER_THE_RUN if after_the_run else "")
        + f"raise SystemExit(cli.main({argv!r}))",
        subprocess.PIPE if after_the_run else None)
    assert proc.returncode == 0
    names = ["results.csv", "summary.json", *(f"trials_{p}.csv" for p in ("dgf", "chernoff")
                                              if flags)]
    assert proc.stdout.splitlines() == [str(tmp_path / name) for name in names]
    assert all((tmp_path / name).stat().st_size > 0 for name in names)
    assert len(json.loads((tmp_path / "summary.json").read_text())["warnings"]) == 10
    if after_the_run:  # every progress line was read, and no warning line
        lines = proc.stderr.splitlines()
        assert len(lines) == 10 + 2 * len(flags)
        assert lines[-1].startswith("[diagnostics] chernoff" if flags else "[10/10] chernoff")


def test_closed_stderr_keeps_a_config_error_at_exit_2():
    proc = _run_with_closed_stderr("from anomsearch import cli\n"
                                   "raise SystemExit(cli.main(['--neg-log-c', '800']))")
    assert proc.returncode == 2
    assert proc.stdout == ""
