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

Exit codes: 0 success, 2 configuration error, 3 I/O error. The ``verify``
preset runs the solver cross-checks instead of a simulation and exits 0
only if every check passes (1 otherwise).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, TextIO

import numpy as np
import scipy

from . import __version__
from .models import (
    Bernoulli,
    Exponential,
    Gaussian,
    ModelError,
    model_from_dict,
    model_to_dict,
)
from .oracle import (
    anomaly_hypotheses,
    hypothesis_action_kl,
    kl_quadrature,
    maximin_action_distribution,
    maximin_action_grid,
)
from .rates import rate_multi, relative_loss, unknownl_lower_bound
# Unused since rate_multi covers L = 1; kept so layer tracing can wrap it.
from .rates import rate_single  # noqa: F401
from .sim import (
    POLICIES,
    POLICY_NAMES,
    ExperimentConfig,
    TrialColumns,
    _fit_tau1_decay,
    _points,
)

_LN10 = math.log(10.0)

_CSV_COLUMNS = (
    "policy", "M", "K", "L", "neg_log_c", "c", "trials",
    "p_e", "mean_tau", "mean_tau_d", "bayes_risk", "lower_bound",
    "relative_loss", "sigma", "ci_low", "ci_high", "truncations",
)

_CONFIG_KEYS = (
    "policies", "M", "K", "L", "model", "neg_log_c", "trials", "seed",
    "priors", "fixed_hypothesis", "true_target_count", "diagnostics",
)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(test: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda value: isinstance(value, (list, tuple)) and all(test(v) for v in value)


_numbers = _list_of(lambda v: _is_int(v) or isinstance(v, float))
# What each key but "model" (model_from_dict checks that) must hold once
# merged, and how to say so; only _NULLABLE keys may also be None.
_KEY_TYPES: dict[str, tuple[Callable[[Any], bool], str]] = {
    **{key: (_is_int, "an integer") for key in ("M", "K", "L", "trials", "seed")},
    "policies": (lambda v: isinstance(v, str) or _list_of(lambda p: isinstance(p, str))(v),
                 "a comma-separated string or a list of policy names"),
    "neg_log_c": (_numbers, "a list of numbers"),
    "priors": (_numbers, "null or a list of numbers"),
    "fixed_hypothesis": (_list_of(_is_int), "null or a list of cell indices"),
    "true_target_count": (_is_int, "null or an integer"),
    "diagnostics": (lambda v: isinstance(v, bool), "true or false"),
}
_NULLABLE = ("priors", "fixed_hypothesis", "true_target_count")

_DEFAULTS: dict[str, Any] = {
    "policies": POLICY_NAMES[:1],  # the policy table's first entry
    "M": 5,
    "K": 1,
    "L": 1,
    "model": {"kind": "exponential", "lambda_f": 0.5, "lambda_g": 10.0},
    "neg_log_c": (1.0, 2.0, 3.0, 4.0, 5.0),
    "trials": 10_000,
    "seed": 271_828,
    "priors": None,
    "fixed_hypothesis": None,
    "true_target_count": None,
    "diagnostics": False,
}

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
    """Resolved run-level configuration: one model/geometry, many policies."""

    policies: tuple[str, ...]
    M: int
    K: int
    L: int
    model: dict
    neg_log_c: tuple[float, ...]
    trials: int
    seed: int
    priors: tuple[float, ...] | None
    fixed_hypothesis: tuple[int, ...] | None
    true_target_count: int | None
    diagnostics: bool

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key in ("policies", "neg_log_c", "priors", "fixed_hypothesis"):
            if out[key] is not None:
                out[key] = list(out[key])
        return out

    def experiment_config(self, policy: str) -> ExperimentConfig:
        return ExperimentConfig(
            num_cells=self.M,
            probes_per_round=self.K,
            policy=policy,
            model=model_from_dict(self.model),
            neg_log_c=self.neg_log_c,
            trials=self.trials,
            seed=self.seed,
            num_targets=self.L,
            true_target_count=self.true_target_count,
            priors=self.priors,
            fixed_hypothesis=self.fixed_hypothesis,
            diagnostics=self.diagnostics,
        )


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

    Raises ConfigError naming the offending field; geometry checks that the
    simulator also enforces (K <= M and so on) are re-raised in the same way
    so the caller maps every validation failure to exit code 2. So is a
    grid point whose trials would need more rounds than the round budget
    (``ExperimentConfig.max_rounds``): about -log c / I*, or
    ell (-log c) / D(g||f) under target constraint ``up_to``, which is the
    risk floor's delay term divided by the cost.
    """
    merged = _merge(layers)
    for key, (test, what) in _KEY_TYPES.items():
        value = merged[key]
        if not (test(value) or (value is None and key in _NULLABLE)):
            raise ConfigError(f"{key} must be {what}, got {value!r}")

    policies = merged["policies"]
    if isinstance(policies, str):
        policies = [p.strip() for p in policies.split(",") if p.strip()]
    policies = tuple(policies)
    if not policies:
        raise ConfigError("policies must name at least one policy")
    if len(set(policies)) != len(policies):
        raise ConfigError("policies must not repeat")

    try:
        model_dict = model_to_dict(model_from_dict(merged["model"]))
    except ModelError as exc:
        raise ConfigError(str(exc)) from None

    spec = RunSpec(
        policies=policies, M=merged["M"], K=merged["K"], L=merged["L"], model=model_dict,
        neg_log_c=tuple(float(t) for t in merged["neg_log_c"]),
        trials=merged["trials"], seed=merged["seed"],
        priors=None if merged["priors"] is None else tuple(float(p) for p in merged["priors"]),
        fixed_hypothesis=None if merged["fixed_hypothesis"] is None
        else tuple(merged["fixed_hypothesis"]),
        true_target_count=merged["true_target_count"], diagnostics=merged["diagnostics"],
    )
    # Surface geometry/threshold violations and runs that cannot finish
    # now rather than mid-run. ExperimentConfig names the policy in every
    # error that depends on it.
    for policy in spec.policies:
        try:
            cfg = spec.experiment_config(policy)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        _, lower_bound = _benchmark(cfg)
        for t, cost in zip(cfg.neg_log_c, cfg.costs):
            rounds = lower_bound(cost) / cost
            if rounds > cfg.max_rounds:
                raise ConfigError(
                    f"policy {policy!r}: at -log c = {t:g} a trial needs about {rounds:.3g} "
                    f"rounds, more than the budget of {cfg.max_rounds}; use a larger cost "
                    f"or a more informative model")
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


def parse_config(source: str | Path | Mapping[str, Any]) -> RunSpec:
    """Load a run config from a JSON file path or an already-parsed mapping."""
    if isinstance(source, Mapping):
        return resolve_config(source)
    path = Path(source)
    try:
        data = _read_config_file(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return resolve_config(data)


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """What was run, with what build, when, which files came out, and where it ran.

    ``environment`` holds the Python, NumPy, SciPy and platform versions:
    NumPy may change its ``Generator`` streams between releases (NEP 19),
    so a run replays bit for bit only under the recorded NumPy.
    ``workers`` is the worker count the run was asked for.
    """

    config: dict
    version: str
    created: str
    outputs: tuple[str, ...]
    environment: dict
    workers: int

    def to_dict(self) -> dict:
        return dict(dataclasses.asdict(self), outputs=list(self.outputs))


@functools.cache
def _environment() -> dict[str, str]:
    """The run environment; read once per process, on first use."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _benchmark(cfg: ExperimentConfig) -> tuple[dict, Callable[[float], float]]:
    """The policy's summary rate entry and its risk floor as a function of the cost.

    Target constraint ``up_to`` is measured against -ell c log c / D(g||f)
    for the true count ell; every other against -c log c / I* of
    ``rate_multi``, which at L = 1 equals ``rate_single`` bit for bit.
    """
    model = cfg.model
    if POLICIES[cfg.policy].targets == "up_to":
        ell = cfg.true_target_count
        d_gf, d_fg = model.kl_divergences()
        return ({"d_gf": d_gf, "d_fg": d_fg, "bound": "unknown_count",
                 "true_target_count": ell},
                lambda cost: unknownl_lower_bound(cost, ell, model))
    report = rate_multi(model, cfg.num_cells, cfg.probes_per_round, cfg.num_targets)
    return ({"d_gf": report.d_gf, "d_fg": report.d_fg, "i_star": report.i_star,
             "regime": report.regime, "bound": "rate"},
            report.lower_bound_at)


def _truncation_warnings(rows: Sequence[Mapping[str, Any]]) -> list[str]:
    return [f"{row['policy']} at -log c = {row['neg_log_c']:g}: {row['truncations']} of "
            f"{row['trials']} trials hit the round budget and count as errors"
            for row in rows if row["truncations"]]


def run_spec(spec: RunSpec, workers: int = 1,
             progress: TextIO | None = None) -> list[dict]:
    """Execute every (policy, threshold) pair; returns plot-ready row dicts."""
    return _run_spec(spec, workers, progress)[0]


def _run_spec(spec: RunSpec, workers: int,
              progress: TextIO | None) -> tuple[list[dict], dict[str, TrialColumns]]:
    """:func:`run_spec`'s rows, and each policy's trials at the last threshold."""
    rows: list[dict] = []
    last: dict[str, TrialColumns] = {}
    total = len(spec.policies) * len(spec.neg_log_c)
    emitted = [0]
    start = time.monotonic()

    def report(line: str) -> None:
        emitted[0] += 1
        if progress is not None:
            elapsed = time.monotonic() - start
            print(f"[{emitted[0]}/{total}] {line} ({elapsed:.1f}s)",
                  file=progress, flush=True)

    for policy in spec.policies:
        cfg = spec.experiment_config(policy)
        _, lower_bound = _benchmark(cfg)
        for t, (cost, m, trials) in zip(spec.neg_log_c, _points(cfg, workers, report)):
            last[policy] = trials
            bound = lower_bound(cost)
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
    return rows, last


def emit_results(rows: Sequence[Mapping[str, Any]], spec: RunSpec, out_dir: str | Path,
                 extra: Mapping[str, Any] | None = None, workers: int = 1) -> RunManifest:
    """Write results.csv and summary.json under out_dir; returns the manifest.

    ``workers`` is recorded in the manifest as the worker count of the run.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    csv_path = out / "results.csv"
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in _CSV_COLUMNS])

    outputs = ["results.csv", "summary.json"]
    if extra:
        outputs.extend(extra.get("outputs", ()))
    manifest = RunManifest(
        config=spec.to_dict(),
        version=__version__,
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        outputs=tuple(outputs),
        environment=dict(_environment()),
        workers=workers,
    )
    summary = {
        "manifest": manifest.to_dict(),
        "rates": {policy: _benchmark(spec.experiment_config(policy))[0]
                  for policy in spec.policies},
        "results": [dict(row) for row in rows],
        "warnings": _truncation_warnings(rows),
    }
    if extra:
        summary.update({k: v for k, v in extra.items() if k != "outputs"})
    with (out / "summary.json").open("w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return manifest


def _cells(mask: Sequence[bool]) -> str:
    return "|".join(str(cell) for cell, hit in enumerate(mask) if hit)


def _write_trial_csv(path: Path, trials: TrialColumns) -> None:
    """One row per trial; a truncated trial's decision is empty, as is tau1 untracked."""
    n = len(trials.tau)
    tau1 = [""] * n if trials.tau1 is None else trials.tau1.tolist()
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("trial_index", "true_hyp", "decision", "tau", "tau_d", "tau1", "correct"))
        writer.writerows(zip(
            range(n), map(_cells, trials.truth.tolist()), map(_cells, trials.decided.tolist()),
            trials.tau.tolist(), trials.tau_d.tolist(), tau1, trials.correct.astype(int).tolist()))


def _run_diagnostics(out: Path, last: Mapping[str, TrialColumns],
                     progress: TextIO | None) -> dict:
    """Per-trial CSVs of the last threshold's trials plus the tail-decay fit over them."""
    out.mkdir(parents=True, exist_ok=True)
    extra: dict[str, Any] = {"outputs": [], "diagnostics": {}}
    for policy, trials in last.items():
        name = f"trials_{policy}.csv"
        _write_trial_csv(out / name, trials)
        extra["outputs"].append(name)
        entry: dict[str, Any] = {"per_trial_csv": name}
        if POLICIES[policy].targets == "one":
            entry["tau1_decay"] = dataclasses.asdict(_fit_tau1_decay(trials))
        extra["diagnostics"][policy] = entry
        if progress is not None:
            print(f"[diagnostics] {policy}: wrote {name}", file=progress, flush=True)
    return extra


def _check(label: str, measured: float, expected: float, tol: float,
           failures: list[str], out: TextIO) -> None:
    err = abs(measured - expected)
    ok = err <= tol
    print(f"{'ok  ' if ok else 'FAIL'} {label}: measured={measured:.10g} "
          f"expected={expected:.10g} |err|={err:.3g} tol={tol:g}", file=out)
    if not ok:
        failures.append(label)


def run_verification(out: TextIO = sys.stdout) -> int:
    """Cross-check closed forms against the independent solvers.

    Covers divergence quadrature vs the model closed forms, the maximin
    program vs the single-target closed form, the three-cell two-target
    instance, and agreement between the LP and grid-search solvers.
    """
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

    # Single-probe maximin against max[D(g||f), D(f||g)/(M-1)]. The dense
    # grid corroboration only runs on the 3-action instances; the grid scan
    # is combinatorial in the action count.
    for model in (Exponential(0.5, 10.0), Exponential(10.0, 0.5)):
        d_gf, d_fg = model.kl_divergences()
        for m_cells in (3, 4, 5):
            hyps = anomaly_hypotheses(m_cells)
            kl = hypothesis_action_kl(model, hyps, m_cells)
            _, value = maximin_action_distribution(kl, 0)
            expected = max(d_gf, d_fg / (m_cells - 1))
            _check(f"maximin single-target M={m_cells} {model.kind} "
                   f"d_gf={d_gf:.3g}", value, expected, 1e-4, failures, out)
            if m_cells == 3:
                _, grid_value = maximin_action_grid(kl, 0)
                _check(f"lp-vs-grid single-target M={m_cells} d_gf={d_gf:.3g}",
                       value, grid_value, 1e-4, failures, out)

    # Three cells, one or two targets, first hypothesis true: the optimal
    # mixture ignores the declared cell and splits evenly over the others.
    model = Bernoulli(0.1, 0.6)
    _, d_fg = model.kl_divergences()
    hyps = anomaly_hypotheses(3, max_targets=2)
    kl = hypothesis_action_kl(model, hyps, 3)
    q, value = maximin_action_distribution(kl, 0)
    _check("two-target instance value", value, d_fg / 2.0, 1e-6, failures, out)
    for i, expected_qi in enumerate((0.0, 0.5, 0.5)):
        _check(f"two-target instance q[{i}]", q[i], expected_qi, 1e-4, failures, out)
    _, grid_value = maximin_action_grid(kl, 0)
    _check("lp-vs-grid two-target instance", value, grid_value, 1e-4, failures, out)

    print(("all checks passed" if not failures
           else f"{len(failures)} check(s) failed: {failures}"), file=out)
    return 0 if not failures else 1


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
    parser.add_argument("--model", choices=("exponential", "gaussian", "bernoulli"),
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
        key_f, key_g = {
            "exponential": ("lambda_f", "lambda_g"),
            "gaussian": ("mu_f", "mu_g"),
            "bernoulli": ("p_f", "p_g"),
        }[family]
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
                print(f"error: cannot read config file {args.config}: {exc}", file=sys.stderr)
                return 3
        layers.append(_flags_layer(args))
        spec = resolve_config(*layers)
        if args.workers < 1:
            raise ConfigError("--workers must be a positive integer")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out) if args.out else Path("anomsearch-out")
    try:
        rows, last = _run_spec(spec, args.workers, sys.stderr)
        extra = _run_diagnostics(out_dir, last, sys.stderr) if spec.diagnostics else None
        manifest = emit_results(rows, spec, out_dir, extra=extra, workers=args.workers)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    for line in _truncation_warnings(rows):
        print(f"warning: {line}", file=sys.stderr)
    for name in manifest.outputs:
        print(out_dir / name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
