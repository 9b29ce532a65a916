"""Command line front end: presets, config files, and CSV/JSON emission.

The runner consumes one run-level configuration (possibly spanning several
policies), executes every (policy, threshold) pair, and writes two files
into the output directory:

``results.csv``
    One row per (policy, threshold) in configuration order, plot-ready.
    Floats are printed with 17 significant digits so downstream parsing
    reproduces the binary values exactly.

``summary.json``
    The run manifest (resolved config, package version, timestamp, output
    names, Python/NumPy/SciPy/platform versions, worker count), the
    per-policy rate constants, the aggregate rows including fields that do
    not fit the CSV (risk stderr, empirical quantile ratio), and
    ``warnings``: one line per row whose trials hit the round budget
    (also printed to stderr as ``warning:`` lines), empty when none did.

Each output is rendered to one string and written as UTF-8 bytes with
``\\n`` line ends on every platform. Files already in the output directory
are overwritten in place and cut to their new length; no output is
truncated to zero before it is written. Files an earlier run left that
this run does not write, such as its ``trials_*.csv``, are left alone.

Exit codes: 0 success, 2 configuration error, 3 I/O error. The ``verify``
preset runs the solver cross-checks instead of a simulation and exits 0
only if every check passes (1 otherwise). A stdout closed before the last
line is written, as by ``anomsearch --preset verify | head -2``, is an I/O
error: the run exits 3 without a traceback. A closed stderr only silences
progress and messages: the run still writes its files and exits with its
own code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence, TextIO

import numpy as np

from . import __version__, sim
from .models import (
    Bernoulli,
    Exponential,
    Gaussian,
    ModelError,
    ObservationModel,
    as_floats,
    model_from_dict,
    model_to_dict,
)
from .oracle import (
    anomaly_hypotheses,
    anomaly_maximin,
    hypothesis_action_kl,
    kl_quadrature,
    maximin_action_distribution,
    maximin_action_grid,
)
# Of these only relative_loss is called: sim._benchmark chooses every bound, so the
# other three are no longer traced. They are bound here only because
# perfbench/tracing.py wraps them by name and would not install without them.
from .rates import rate_multi, rate_single, relative_loss, unknownl_lower_bound  # noqa: F401
from .sim import POLICY_NAMES, ExperimentConfig, TrialColumns

_LN10 = math.log(10.0)

_CSV_COLUMNS = (
    "policy", "M", "K", "L", "neg_log_c", "c", "trials",
    "p_e", "mean_tau", "mean_tau_d", "bayes_risk", "lower_bound",
    "relative_loss", "sigma", "ci_low", "ci_high", "truncations",
)


PRESETS: dict[str, dict[str, Any]] = {
    # Five-cell search, one probe per round, strongly informative exponentials.
    "fig2": {
        "policies": ("dgf", "chernoff"),
        "M": 5, "K": 1, "L": 1,
        "model": {"kind": "exponential", "lambda_f": 0.5, "lambda_g": 10.0},
        "neg_log_c": (1.0, 2.0, 3.0, 4.0, 5.0),
    },
    # Two probes per round, mild contrast: the policies pick top-2 cells.
    "fig3": {
        "policies": ("dgf", "chernoff"),
        "M": 5, "K": 2, "L": 1,
        "model": {"kind": "exponential", "lambda_f": 2.0, "lambda_g": 10.0},
        "neg_log_c": (1.0, 2.0, 3.0, 4.0, 5.0),
    },
    # Two probes per round, strong contrast: ranks 2..3 are probed instead.
    "fig4": {
        "policies": ("dgf", "chernoff"),
        "M": 5, "K": 2, "L": 1,
        "model": {"kind": "exponential", "lambda_f": 0.5, "lambda_g": 10.0},
        "neg_log_c": (1.0, 2.0, 3.0, 4.0, 5.0),
    },
    # Dispersion table: costs are powers of ten, c = 1e-1, 1e-3, 1e-5.
    "table2": {
        "policies": ("dgf", "chernoff"),
        "M": 5, "K": 1, "L": 1,
        "model": {"kind": "exponential", "lambda_f": 0.5, "lambda_g": 10.0},
        "neg_log_c": (_LN10, 3.0 * _LN10, 5.0 * _LN10),
    },
    # Three cells, up to two targets, exactly one present: the declare-as-you-go
    # policy against the generic maximin test, conditioned on the first
    # hypothesis being true.
    "table1_example": {
        "policies": ("unknown_l", "chernoff_generic"),
        "M": 3, "K": 1, "L": 2,
        "model": {"kind": "bernoulli", "p_f": 0.1, "p_g": 0.6},
        "neg_log_c": (8.0,),
        "fixed_hypothesis": (0,),
    },
}

PRESET_NAMES = tuple(PRESETS) + ("verify",)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Resolved run-level configuration: one model/geometry, many policies.

    The fields are the config keys, in the order the manifest writes them,
    and their defaults fill every key no layer sets. A key whose default is
    None accepts null; null for any other key keeps its default. ``model``
    is the built model; :meth:`to_dict`, and so the manifest, writes its
    kind-tagged dict.
    """

    policies: tuple[str, ...] = POLICY_NAMES[:1]  # the policy table's first entry
    M: int = 5
    K: int = 1
    L: int = ExperimentConfig.num_targets
    model: ObservationModel = Exponential(0.5, 10.0)
    neg_log_c: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0)
    trials: int = ExperimentConfig.trials
    seed: int = ExperimentConfig.seed
    priors: tuple[float, ...] | None = None
    fixed_hypothesis: tuple[int, ...] | None = None
    true_target_count: int | None = None
    diagnostics: bool = ExperimentConfig.diagnostics

    def to_dict(self) -> dict:
        # vars, not dataclasses.asdict: the fields are immutable, so no deep copy.
        return {**vars(self), "model": model_to_dict(self.model)}

    def experiment_config(self, policy: str) -> ExperimentConfig:
        return ExperimentConfig(
            num_cells=self.M,
            probes_per_round=self.K,
            policy=policy,
            model=self.model,
            neg_log_c=self.neg_log_c,
            trials=self.trials,
            seed=self.seed,
            num_targets=self.L,
            true_target_count=self.true_target_count,
            priors=self.priors,
            fixed_hypothesis=self.fixed_hypothesis,
            diagnostics=self.diagnostics,
        )


_DEFAULTS = RunSpec().to_dict()
_CONFIG_KEYS = tuple(_DEFAULTS)
_NULLABLE = tuple(key for key, value in _DEFAULTS.items() if value is None)


def _merge(layers: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    merged = dict(_DEFAULTS)
    for layer in layers:
        for key, value in layer.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}; expected one of {_CONFIG_KEYS}")
            if value is not None or key in _NULLABLE:
                merged[key] = value
    return merged


def resolve_config(*layers: Mapping[str, Any]) -> RunSpec:
    """Merge config layers (later wins) and validate the result.

    This parses and canonicalises: it refuses unknown keys, splits and
    checks ``policies``, the one key the library lacks, and gives
    ``neg_log_c``, ``priors``, ``model`` and ``fixed_hypothesis`` the forms
    the manifest writes. ``ExperimentConfig`` checks: each key's type, by the
    one number rule, and every bound. Raises ConfigError naming the offending
    field; the config's own ValueErrors (a value of the wrong type, K > M and
    so on) are re-raised in the same words so the caller maps every
    validation failure to exit code 2, among them
    a grid whose trial outcomes would take more than ``sim._MAX_OUTCOME_BYTES``.
    So is a grid point whose trials would need more rounds to stop than the
    round budget (``ExperimentConfig.max_rounds``), as ``sim._benchmark``
    estimates them, or whose risk floor is below the least normal float,
    where ``relative_loss`` would divide by zero or by a few bits. The budget
    error is the sentence that ``sim.run_experiment`` warns with, followed by
    advice; the library runs such a config, and this refuses it.
    """
    merged = _merge(layers)
    policies = merged["policies"]
    if isinstance(policies, str):
        policies = [p.strip() for p in policies.split(",") if p.strip()]
    # ExperimentConfig checks each name, and the type of every other key.
    if not (isinstance(policies, (list, tuple)) and all(isinstance(p, str) for p in policies)):
        raise ConfigError(f"policies must be a comma-separated string or a list of policy "
                          f"names, got {merged['policies']!r}")
    if not policies:
        raise ConfigError("policies must name at least one policy")
    if len(set(policies)) != len(policies):
        raise ConfigError("policies must not repeat")

    try:
        for key in ("neg_log_c", "priors"):
            if merged[key] is not None:
                merged[key] = as_floats(key, merged[key], many=True)
        model = model_from_dict(merged["model"])
    except ModelError as exc:
        raise ConfigError(str(exc)) from None

    merged.update(policies=tuple(policies), model=model)
    if isinstance(merged["fixed_hypothesis"], list):
        merged["fixed_hypothesis"] = tuple(merged["fixed_hypothesis"])
    spec = RunSpec(**merged)
    # Surface geometry/threshold violations and runs that cannot finish
    # now rather than mid-run. ExperimentConfig names the policy in every
    # error that depends on it.
    for policy in spec.policies:
        try:
            cfg = spec.experiment_config(policy)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        bench = sim._benchmark(cfg)
        for t, cost, over in zip(cfg.neg_log_c, cfg.costs, sim._over_budget(cfg, bench.per_unit)):
            if over:
                raise ConfigError(f"{over}; use a larger cost or a more informative model")
            if not bench.floor(cost) >= sys.float_info.min:
                raise ConfigError(f"policy {policy!r}: at -log c = {t:g} the risk floor is "
                                  f"below the least normal float {sys.float_info.min:.3g}; "
                                  f"use a larger cost or a less informative model")
    return spec


def _read_config_file(path: Path) -> dict:
    """The JSON object in ``path``: OSError if unreadable, ConfigError if not one."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


@functools.cache
def _environment() -> dict[str, str]:
    """The Python, NumPy, SciPy and platform versions; read once per process.

    NumPy may change its ``Generator`` streams between releases (NEP 19),
    so a run replays bit for bit only under the recorded NumPy. SciPy and
    ``platform`` are imported here, not with the module: SciPy's top level
    alone is several milliseconds of every start.
    """
    import platform

    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _truncation_warnings(rows: Sequence[Mapping[str, Any]]) -> list[str]:
    return [f"{row['policy']} at -log c = {row['neg_log_c']:g}: {row['truncations']} of "
            f"{row['trials']} trials hit the round budget and count as errors"
            for row in rows if row["truncations"]]


def run_spec(spec: RunSpec, workers: int = 1,
             progress: TextIO | None = None) -> list[dict]:
    """Execute every (policy, threshold) pair; returns plot-ready row dicts."""
    return _run_spec(spec, workers, progress)[0]


def _say(out: TextIO | None, line: str) -> TextIO | None:
    """Print ``line`` to ``out``, if given, and return ``out``, or None once a
    pipe closed under it has refused the line. Progress and warnings are only
    diagnostic, so a reader that has gone stops them, not the run; the caller
    passes the result on and stops writing. ``out`` itself is left as it is."""
    if out is not None:
        try:
            print(line, file=out, flush=True)
        except BrokenPipeError:
            return None
    return out


def _run_spec(spec: RunSpec, workers: int, progress: TextIO | None,
              out: Path | None = None) -> tuple[list[dict], dict | None]:
    """:func:`run_spec`'s rows, and, given an existing directory ``out``, the
    summary's diagnostics keys (else None): each policy's trials at the last
    threshold go to ``trials_<policy>.csv`` and the tail fit as soon as its
    grid is built, and no policy's grid outlives its turn."""
    rows: list[dict] = []
    extra: dict[str, Any] | None = None if out is None else {"diagnostics": {}}
    total = len(spec.policies) * len(spec.neg_log_c)
    start = time.monotonic()
    for policy in spec.policies:
        cfg = spec.experiment_config(policy)
        floor = sim._benchmark(cfg).floor
        grid = sim._run_grid(cfg, cfg.costs, workers)
        # Through the module, so that layer tracing sees each aggregate call.
        for t, cost, m in zip(spec.neg_log_c, cfg.costs, sim.aggregate(grid, cfg.costs)):
            progress = _say(progress, f"[{len(rows) + 1}/{total}] {policy} -log c={t:g}: mean_tau="
                            f"{m.mean_tau:.4g} p_e={m.p_e:.3g} trials={m.trial_count} "
                            f"({time.monotonic() - start:.1f}s)")
            bound = floor(cost)
            rows.append({
                "policy": policy, "M": spec.M, "K": spec.K, "L": spec.L,
                "neg_log_c": t, "c": cost, "trials": m.trial_count,
                "p_e": m.p_e, "mean_tau": m.mean_tau, "mean_tau_d": m.mean_tau_d,
                "bayes_risk": m.bayes_risk, "lower_bound": bound,
                "relative_loss": relative_loss(m.bayes_risk, bound),
                "sigma": m.sigma, "ci_low": m.ci_low, "ci_high": m.ci_high,
                "truncations": m.truncations,
                "risk_stderr": m.risk_stderr, "r_empirical": m.r_empirical,
            })
        if extra is not None:
            trials, name = sim._row(grid, -1), f"trials_{policy}.csv"
            _write_trial_csv(out / name, trials)
            extra["diagnostics"][policy] = entry = {"per_trial_csv": name}
            if trials.tau1 is not None:
                entry["tau1_decay"] = dataclasses.asdict(sim._fit_tau1_decay(trials))
            progress = _say(progress, f"[diagnostics] {policy}: wrote {name}")
            del trials  # views, which would keep the grid alive
        del grid  # before the next policy's grid is built
    return rows, extra


def _write(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path``'s old bytes and cut the file to its length.

    No ``O_TRUNC``: on ext4 with ``auto_da_alloc`` (its default), truncating a
    file written milliseconds earlier took about 250 us in ``open`` against 25 us
    without, on a 2-vCPU VM. A new file gets mode 0o666 less the umask.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        done = 0
        while done < len(data):  # os.write may write less than it is given
            done += os.write(fd, data[done:])
        os.ftruncate(fd, done)
    finally:
        os.close(fd)


def _csv(rows: Iterable[Iterable[Any]]) -> str:
    """``rows`` as ``csv.writer(fh, lineterminator="\\n")`` writes them. No field
    needs quoting: policy names are validated, every other field is a number
    or ``|``-joined cell indices."""
    return "".join([",".join(map(str, row)) + "\n" for row in rows])


def emit_results(rows: Sequence[Mapping[str, Any]], spec: RunSpec, out_dir: str | Path,
                 extra: Mapping[str, Any] | None = None, workers: int = 1) -> dict:
    """Write results.csv and summary.json under out_dir; returns the manifest.

    The manifest records what was run (``config``), with what build, when,
    which files came out, where (``environment``) and with how many workers.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    _write(out / "results.csv",
           _csv([_CSV_COLUMNS, *([_fmt(row[col]) for col in _CSV_COLUMNS] for row in rows)]))

    outputs = ["results.csv", "summary.json"]
    if extra:
        outputs.extend(entry["per_trial_csv"] for entry in extra["diagnostics"].values())
    manifest = {
        "config": spec.to_dict(),
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "outputs": outputs,
        "environment": dict(_environment()),
        "workers": workers,
    }
    summary = {
        "manifest": manifest,
        "rates": {policy: sim._benchmark(spec.experiment_config(policy)).rates
                  for policy in spec.policies},
        "results": [dict(row) for row in rows],
        "warnings": _truncation_warnings(rows),
    }
    if extra:
        summary.update(extra)
    _write(out / "summary.json", json.dumps(summary, indent=2) + "\n")
    return manifest


def _write_trial_csv(path: Path, trials: TrialColumns) -> None:
    """One row per trial; tau1 is empty when untracked, and so is the decision of a
    truncated trial (``truncated`` 1) or of one that stopped declaring no cell."""
    truth, decided = (["|".join(map(str, c)) for c in sim._cells(masks)] for masks in trials[:2])
    tau1 = [""] * len(truth) if trials.tau1 is None else trials.tau1.tolist()
    _write(path, _csv([
        ("trial_index", "true_hyp", "decision", "tau", "tau_d", "tau1", "correct", "truncated"),
        *zip(range(len(truth)), truth, decided, trials.tau.tolist(), trials.tau_d.tolist(), tau1,
             trials.correct.astype(int).tolist(), trials.truncated.astype(int).tolist())]))


def _check(label: str, measured: float, expected: float, tol: float,
           failures: list[str], out: TextIO) -> None:
    err = abs(measured - expected)
    ok = err <= tol
    print(f"{'ok  ' if ok else 'FAIL'} {label}: measured={measured:.10g} "
          f"expected={expected:.10g} |err|={err:.3g} tol={tol:g}", file=out)
    if not ok:
        failures.append(label)


def run_verification(out: TextIO | None = None) -> int:
    """Cross-check closed forms against the independent solvers.

    Covers divergence quadrature vs the model closed forms, the maximin LP
    vs its closed form (``anomaly_maximin``) on every target set of six
    geometries, and the LP vs the grid-search solver on three-cell ones.
    The report goes to ``out``, by default ``sys.stdout`` as it is at the call.
    """
    out = sys.stdout if out is None else out
    failures: list[str] = []

    quad_cases = [
        (Exponential(0.5, 10.0), 1e-6),
        (Exponential(2.0, 10.0), 1e-6),
        (Gaussian(0.0, 1.0, 1.0), 1e-6),
        (Bernoulli(0.2, 0.8), 1e-12),
    ]
    for model, tol in quad_cases:
        d_gf, d_fg = model.kl_divergences()
        q_gf, q_fg = kl_quadrature(model)
        name = f"{model.kind}{tuple(v for v in model_to_dict(model).values() if v != model.kind)}"
        _check(f"quadrature d_gf {name}", d_gf, q_gf, tol, failures, out)
        _check(f"quadrature d_fg {name}", d_fg, q_fg, tol, failures, out)

    # The maximin LP on every target set against its closed form: the largest
    # relative gap in the value, and the largest gap in a weight from a on
    # each member and b on each other cell. The dense grid corroborates the
    # LP on the 3-action instances only; its scan is combinatorial in actions.
    for model, m_cells, max_targets in (
            (Exponential(0.5, 10.0), 3, 1), (Exponential(10.0, 0.5), 3, 1),
            (Bernoulli(0.1, 0.6), 3, 2), (Exponential(0.5, 10.0), 5, 1),
            (Bernoulli(0.2, 0.7), 5, 3), (Gaussian(0.0, 1.0, 1.0), 6, 4)):
        d_gf, d_fg = model.kl_divergences()
        hyps = anomaly_hypotheses(m_cells, max_targets)
        kl = hypothesis_action_kl(model, hyps, m_cells)
        value_gap = weight_gap = 0.0
        for i, h in enumerate(hyps):
            q, value = maximin_action_distribution(kl, i)
            a, b, expected = anomaly_maximin(d_gf, d_fg, m_cells, max_targets, len(h))
            value_gap = max(value_gap, abs(value - expected) / expected)
            weight_gap = max(weight_gap, *(abs(w - (a if cell in h else b))
                                           for cell, w in enumerate(q)))
        label = (f"maximin M={m_cells} L={max_targets} {model.kind} d_gf={d_gf:.3g} "
                 f"({len(hyps)} sets)")
        _check(f"{label} closed-form value", value_gap, 0.0, 1e-9, failures, out)
        _check(f"{label} closed-form mixture", weight_gap, 0.0, 1e-9, failures, out)
        if m_cells == 3:
            _, value = maximin_action_distribution(kl, 0)
            _, grid_value = maximin_action_grid(kl, 0)
            _check(f"{label} lp-vs-grid", value, grid_value, 1e-4, failures, out)

    print(("all checks passed" if not failures
           else f"{len(failures)} check(s) failed: {failures}"), file=out)
    return 0 if not failures else 1


# The families --model offers, and the parameters --lambda-f/--lambda-g set.
_FLAG_FAMILIES = {
    "exponential": ("lambda_f", "lambda_g"),
    "gaussian": ("mu_f", "mu_g"),
    "bernoulli": ("p_f", "p_g"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anomsearch",
        description="Monte Carlo runner for sequential anomaly search policies.",
    )
    parser.add_argument("config", nargs="?", help="JSON config file")
    parser.add_argument("--preset", choices=PRESET_NAMES,
                        help="named experiment ('verify' runs solver cross-checks)")
    parser.add_argument("--M", type=int, dest="M", help="number of cells")
    parser.add_argument("--K", type=int, dest="K", help="probes per round")
    parser.add_argument("--L", type=int, dest="L", help="maximum number of targets")
    parser.add_argument("--policy", help="comma-separated policy names "
                                         f"(choices: {', '.join(POLICY_NAMES)})")
    parser.add_argument("--model", choices=tuple(_FLAG_FAMILIES),
                        help="observation family; parameters via --lambda-f/--lambda-g")
    parser.add_argument("--lambda-f", type=float, dest="lambda_f",
                        help="normal-cell parameter (rate / mean / success prob.)")
    parser.add_argument("--lambda-g", type=float, dest="lambda_g",
                        help="abnormal-cell parameter (rate / mean / success prob.)")
    parser.add_argument("--neg-log-c", dest="neg_log_c",
                        help="comma-separated -log c grid, natural log")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials per grid point")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", help="output directory (default anomsearch-out)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes; results are identical for any value")
    parser.add_argument("--diagnostics", action="store_true", default=None,
                        help="also write per-trial CSVs and the tail-decay fit")
    return parser


def _flags_layer(args: argparse.Namespace) -> dict[str, Any]:
    layer = {key: getattr(args, key) for key in ("M", "K", "L", "trials", "seed", "diagnostics")
             if getattr(args, key) is not None}
    if args.policy is not None:
        layer["policies"] = args.policy
    if args.model is not None or args.lambda_f is not None or args.lambda_g is not None:
        family = args.model or "exponential"
        if args.lambda_f is None or args.lambda_g is None:
            raise ConfigError("--model requires both --lambda-f and --lambda-g")
        key_f, key_g = _FLAG_FAMILIES[family]
        layer["model"] = {"kind": family, key_f: args.lambda_f, key_g: args.lambda_g}
    if args.neg_log_c is not None:
        try:
            layer["neg_log_c"] = tuple(
                float(tok) for tok in args.neg_log_c.split(",") if tok.strip())
        except ValueError:
            raise ConfigError(f"--neg-log-c must be comma-separated numbers, "
                              f"got {args.neg_log_c!r}") from None
    return layer


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early. Point it at devnull so that the
        # interpreter's last flush stays quiet, as Python's ``signal`` docs advise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    return code


def _main(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its own message
        code = exc.code
        return code if isinstance(code, int) else 2

    if args.preset == "verify":
        return run_verification()

    try:
        layers: list[Mapping[str, Any]] = []
        if args.preset is not None:
            layers.append(PRESETS[args.preset])
        if args.config is not None:
            try:
                layers.append(_read_config_file(Path(args.config)))
            except OSError as exc:
                _say(sys.stderr, f"error: cannot read config file {args.config}: {exc}")
                return 3
        layers.append(_flags_layer(args))
        spec = resolve_config(*layers)
        if args.workers < 1:
            raise ConfigError("--workers must be a positive integer")
    except ConfigError as exc:
        _say(sys.stderr, f"config error: {exc}")
        return 2

    out_dir = Path(args.out) if args.out else Path("anomsearch-out")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)  # fail before the first trial, not after
        rows, extra = _run_spec(spec, args.workers, sys.stderr,
                                out_dir if spec.diagnostics else None)
        manifest = emit_results(rows, spec, out_dir, extra=extra, workers=args.workers)
    except OSError as exc:
        _say(sys.stderr, f"i/o error: {exc}")
        return 3
    for line in _truncation_warnings(rows):
        _say(sys.stderr, f"warning: {line}")
    for name in manifest["outputs"]:
        print(out_dir / name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
