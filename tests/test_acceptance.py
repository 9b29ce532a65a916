"""End-to-end acceptance checks.

Each test is one criterion, sized to run on a laptop in minutes. Criteria
02, 03 and 04 share one module-scoped fixture: a 10^5-trial run of each fig2
policy over the union of their -log c grids, which gives every cost the same
metrics as a run of its own grid would. Everything else is seconds. Run with
-v to get one pass/fail line per criterion.
"""

import math

import numpy as np
import pytest

from anomsearch import (
    Bernoulli,
    ExperimentConfig,
    Exponential,
    Gaussian,
    PolicyConfig,
    RateReport,
    anomaly_hypotheses,
    dgf_step,
    dgfl_step,
    hypothesis_action_kl,
    maximin_action_distribution,
    rate_multi,
    rate_single,
    run_experiment,
    tau1_decay_diagnostic,
)
from anomsearch.cli import main
from anomsearch.oracle import anomaly_maximin
from anomsearch import SearchState

FIG2_MODEL = Exponential(0.5, 10.0)
LN10 = math.log(10.0)
UNIT_GRID = (1.0, 2.0, 3.0, 4.0, 5.0)  # criteria 02 and 04
DECADE_GRID = (LN10, 3 * LN10, 5 * LN10)  # criterion 03


def make_state(sums):
    state = SearchState(len(sums))
    for i, v in enumerate(sums):
        state.s[i] = float(v)
    return state


def single_target_rate(model, m, k):
    """The one-target rate of K probes on M cells, written out. Probing every
    cell accrues d_gf + d_fg, in regime "g" iff d_gf >= d_fg / (M - 1);
    otherwise the better arm wins, pinning the leader (d_gf + (K - 1) d_fg /
    (M - 1), "g", ties included) or clearing the rest (K d_fg / (M - 1), "f")."""
    d_gf, d_fg = model.kl_divergences()
    if k == m:
        return RateReport(d_gf, d_fg, d_gf + d_fg, "g" if d_gf >= d_fg / (m - 1) else "f")
    chase, clear = d_gf + (k - 1) * d_fg / (m - 1), k * d_fg / (m - 1)
    return RateReport(d_gf, d_fg, *((chase, "g") if chase >= clear else (clear, "f")))


def experiment(policy, **overrides):
    base = dict(
        num_cells=5,
        probes_per_round=1,
        policy=policy,
        model=FIG2_MODEL,
        neg_log_c=UNIT_GRID,
        trials=100_000,
        seed=271_828,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def fig2_runs():
    """Both single-target policies on the five-cell exponential scenario, each
    run once on the unit grid followed by the decade grid. A cost's trials do
    not depend on the grid they run in, so each half reads as its own run."""
    grid = UNIT_GRID + DECADE_GRID
    return {policy: run_experiment(experiment(policy, neg_log_c=grid))
            for policy in ("dgf", "chernoff")}


def test_criterion_01_kl_closed_forms():
    d_gf, d_fg = FIG2_MODEL.kl_divergences()
    assert d_gf == pytest.approx(2.05, abs=0.01)
    assert d_fg / 4 == pytest.approx(4.00, abs=0.01)
    d_gf, d_fg = Exponential(2.0, 10.0).kl_divergences()
    assert d_gf == pytest.approx(0.80, abs=0.01)
    assert d_fg / 4 == pytest.approx(0.60, abs=0.01)


def test_criterion_02_error_probability_bound(fig2_runs):
    by_t = dict(zip(UNIT_GRID, fig2_runs["dgf"]))
    for t in (3.0, 5.0):
        cost, m = by_t[t]
        stderr = math.sqrt(m.p_e * (1 - m.p_e) / m.trial_count)
        assert m.p_e <= 4 * cost + 3 * stderr, (t, m.p_e, 4 * cost)


def test_criterion_03_stop_time_spread(fig2_runs):
    published = {"dgf": (1.84, 2.00, 2.24), "chernoff": (6.75, 7.17, 7.75)}
    for policy, targets in published.items():
        decades = fig2_runs[policy][len(UNIT_GRID):]
        for (_, m), target in zip(decades, targets, strict=True):
            assert m.sigma == pytest.approx(target, rel=0.10), (policy, target, m.sigma)


def test_criterion_04_relative_loss_dominance(fig2_runs):
    report = rate_single(FIG2_MODEL, 5, 1)
    n = len(UNIT_GRID)
    for (cost, dgf), (_, ch) in zip(fig2_runs["dgf"][:n], fig2_runs["chernoff"][:n]):
        rlb = report.lower_bound_at(cost)

        def loss_ci(m):
            low = (m.bayes_risk - 1.96 * m.risk_stderr) / rlb - 1
            high = (m.bayes_risk + 1.96 * m.risk_stderr) / rlb - 1
            return low, high

        dgf_low, dgf_high = loss_ci(dgf)
        ch_low, ch_high = loss_ci(ch)
        assert dgf_high < ch_low, (cost, (dgf_low, dgf_high), (ch_low, ch_high))


def test_criterion_05_ratio_decreases_toward_limit():
    model = Bernoulli(0.1, 0.4)
    grid = (2.0, 4.0, 6.0, 8.0)
    i_star = rate_single(model, 5, 4).i_star
    for policy in ("dgf", "chernoff"):
        cfg = experiment(policy, probes_per_round=4, model=model,
                         neg_log_c=grid, trials=10_000)
        ratios = [m.mean_tau / (t / i_star)
                  for t, (_, m) in zip(grid, run_experiment(cfg))]
        assert all(a > b for a, b in zip(ratios, ratios[1:])), (policy, ratios)
        assert ratios[-1] <= 1.5, (policy, ratios[-1])


def test_criterion_06_single_target_reduction():
    # policy side: the L-target stepper with L=1 is the plain stepper
    rng = np.random.default_rng(20260819)
    models = [FIG2_MODEL, Exponential(10.0, 0.5), Bernoulli(0.2, 0.6)]
    for _ in range(1000):
        m = int(rng.integers(2, 8))
        k = int(rng.integers(1, m + 1))
        model = models[int(rng.integers(len(models)))]
        cfg = PolicyConfig.for_model(model, m, k, math.exp(-float(rng.uniform(0.5, 9.0))))
        sums = rng.normal(0.0, 4.0, size=m)
        if rng.random() < 0.3:
            sums = np.round(sums)  # force rank ties
        state = make_state(sums)
        assert dgf_step(state, cfg) == dgfl_step(state, cfg)

    # rate side: the L=1 rate report is the single-target one, bit for bit
    for model in [*models, Bernoulli(0.1, 0.6), Bernoulli(0.2, 0.8), Exponential(1.0, 4.0),
                  Gaussian(0.0, 1.0)]:
        for m, k in ((2, 1), (4, 3), (5, 2), (6, 6)):
            assert rate_multi(model, m, k, 1) == single_target_rate(model, m, k)


def test_criterion_07_maximin_matches_closed_forms():
    # The LP's value, the paper's closed form and the engine's closed form
    # (``anomaly_maximin``) agree.
    for model in (FIG2_MODEL, Exponential(10.0, 0.5)):
        d_gf, d_fg = model.kl_divergences()
        for m in (3, 4, 5):
            kl = hypothesis_action_kl(model, anomaly_hypotheses(m), m)
            _, value = maximin_action_distribution(kl, 0)
            assert value == pytest.approx(max(d_gf, d_fg / (m - 1)), abs=1e-4)
            assert anomaly_maximin(d_gf, d_fg, m, 1, 1)[2] == pytest.approx(value, rel=1e-12)

    # three cells, up to two targets, ML = {0}: probing is split over the
    # two cells whose status is still contested, whatever the model
    model = Bernoulli(0.1, 0.6)
    d_gf, d_fg = model.kl_divergences()
    kl = hypothesis_action_kl(model, anomaly_hypotheses(3, max_targets=2), 3)
    q, value = maximin_action_distribution(kl, 0)
    assert value == pytest.approx(d_fg / 2, abs=1e-6)
    assert q == pytest.approx([0.0, 0.5, 0.5], abs=1e-4)
    a, b, closed = anomaly_maximin(d_gf, d_fg, 3, 2, 1)
    assert closed == pytest.approx(value, rel=1e-12)
    assert [a, b, b] == pytest.approx(q, rel=0, abs=1e-12)


def test_criterion_08_unknown_count_beats_generic_test():
    model = Bernoulli(0.1, 0.6)
    d_gf, d_fg = model.kl_divergences()
    t = 8.0
    shared = dict(num_cells=3, probes_per_round=1, model=model,
                  neg_log_c=(t,), trials=10_000, seed=271_828,
                  num_targets=2, fixed_hypothesis=(0,))
    (_, mu), = run_experiment(ExperimentConfig(policy="unknown_l", **shared))
    (_, mg), = run_experiment(ExperimentConfig(policy="chernoff_generic", **shared))

    assert mu.mean_tau_d < mg.mean_tau_d
    ratio_u = mu.mean_tau_d / (t / d_gf)
    assert 0.8 <= ratio_u <= 1.6, ratio_u
    ratio_g = mg.mean_tau_d / (2 * t / d_fg)
    assert 1 / 1.6 <= ratio_g <= 1.6, ratio_g


def test_criterion_09_last_passage_tail_decays():
    cfg = experiment("dgf", trials=10_000, diagnostics=True)
    report = tau1_decay_diagnostic(cfg, math.exp(-3.0))
    assert not report.inconclusive
    assert report.gamma_hat > 0, report


def test_criterion_10_results_independent_of_parallelism(tmp_path):
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        code = main(["--preset", "fig2", "--trials", "300",
                     "--workers", workers, "--out", str(out)])
        assert code == 0
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]
