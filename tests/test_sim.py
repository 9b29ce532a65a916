import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from anomsearch import sim
from anomsearch import (
    AggregateMetrics,
    Bernoulli,
    ExperimentConfig,
    Exponential,
    TrialColumns,
    aggregate,
    run_experiment,
    run_trial,
    run_trials,
    tau1_decay_diagnostic,
)


def cfg(**overrides):
    base = dict(
        num_cells=4,
        probes_per_round=1,
        policy="dgf",
        model=Exponential(0.5, 10.0),
        neg_log_c=(3.0,),
        trials=100,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            cfg(policy="greedy")

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            cfg(num_cells=1)
        with pytest.raises(ValueError):
            cfg(probes_per_round=5)
        with pytest.raises(ValueError):
            cfg(probes_per_round=0)

    def test_one_probe_policies_pin_k(self):
        for policy in ("seq_dgf_l", "unknown_l"):
            with pytest.raises(ValueError, match="one cell per round"):
                cfg(policy=policy, probes_per_round=2, num_targets=2)

    def test_single_target_policies_pin_l(self):
        with pytest.raises(ValueError):
            cfg(policy="chernoff", num_targets=2)

    def test_grid_must_be_positive(self):
        with pytest.raises(ValueError):
            cfg(neg_log_c=())
        with pytest.raises(ValueError):
            cfg(neg_log_c=(3.0, -1.0))
        with pytest.raises(ValueError):
            cfg(neg_log_c=(float("inf"),))

    def test_costs_property(self):
        c = cfg(neg_log_c=(1.0, 3.0))
        assert c.costs == pytest.approx((math.exp(-1), math.exp(-3)))

    def test_true_count_defaults(self):
        assert cfg().true_target_count == 1
        assert cfg(policy="dgf_l", num_targets=2).true_target_count == 2
        two = cfg(policy="unknown_l", num_targets=3, fixed_hypothesis=(2, 0))
        assert two.true_target_count == 2
        assert two.fixed_hypothesis == (0, 2)  # stored sorted

    def test_known_count_policies_require_match(self):
        with pytest.raises(ValueError):
            cfg(policy="dgf_l", num_targets=2, true_target_count=1)
        with pytest.raises(ValueError):
            cfg(policy="dgf", true_target_count=2)
        # unknown_l tolerates any count up to the cap
        assert cfg(policy="unknown_l", num_targets=3,
                   true_target_count=2).true_target_count == 2
        with pytest.raises(ValueError):
            cfg(policy="unknown_l", num_targets=2, true_target_count=3)

    def test_fixed_hypothesis_validation(self):
        with pytest.raises(ValueError):
            cfg(fixed_hypothesis=(0, 0))
        with pytest.raises(ValueError):
            cfg(fixed_hypothesis=(4,))
        with pytest.raises(ValueError):
            cfg(fixed_hypothesis=())
        with pytest.raises(ValueError):
            cfg(policy="dgf_l", num_targets=2, fixed_hypothesis=(1,))

    def test_priors_validation(self):
        with pytest.raises(ValueError):
            cfg(priors=(0.5, 0.5))  # wrong length
        with pytest.raises(ValueError):
            cfg(priors=(0.5, 0.5, 0.25, 0.25))  # wrong total
        with pytest.raises(ValueError):
            cfg(priors=(1.0, 0.0, 0.0, 0.0))  # boundary weights
        with pytest.raises(ValueError):
            cfg(policy="dgf_l", num_targets=2, priors=(0.25,) * 4)
        assert cfg().priors == pytest.approx((0.25,) * 4)


def sprt_reference(config, cost, trial_index):
    """Independent two-cell full-observation replay of the probe loop."""
    model = config.model
    threshold = -math.log(cost)
    rng = np.random.default_rng([config.seed, trial_index])
    truth = 0 if rng.random() < config.priors[0] else 1
    s = [0.0, 0.0]
    n = 0
    while abs(s[0] - s[1]) < threshold:
        for cell in (0, 1):
            y = model.sample(cell == truth, rng)
            s[cell] += model.llr(y)
        n += 1
    winner = 0 if s[0] > s[1] else 1
    return truth, winner, n


@pytest.mark.parametrize("model", [Bernoulli(0.25, 0.75), Exponential(1.0, 4.0)],
                         ids=lambda m: m.kind)
def test_two_cell_full_probe_matches_sprt_replay(model):
    # With M=K=2 every policy nuance disappears: each round observes both
    # cells and the race is a plain log-likelihood random walk. An
    # independent replay of that walk must reproduce run_trial bit for bit.
    config = cfg(num_cells=2, probes_per_round=2, model=model,
                 neg_log_c=(4.0,), trials=100, seed=20260819)
    cost = math.exp(-4.0)
    for t in range(100):
        truth, winner, n = sprt_reference(config, cost, t)
        got = run_trial(config, cost, t)
        assert got.true_hypothesis == (truth,)
        assert got.decision == (winner,)
        assert got.tau == n
        assert got.correct == (winner == truth)
        assert got.observations_taken == 2 * n


def recording_pool(sizes):
    """A thread pool class to stand in for the process pool: no process
    starts, at most one thread per submitted chunk does, and each pool's
    size is appended to ``sizes``."""

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    return RecordingPool


class TestDeterminism:
    def test_same_seed_same_results(self):
        config = cfg(trials=40)
        cost = config.costs[0]
        assert run_trials(config, cost) == run_trials(config, cost)

    def test_results_do_not_depend_on_worker_count(self):
        config = cfg(policy="chernoff", trials=30, seed=3)
        cost = config.costs[0]
        assert run_trials(config, cost, workers=1) == run_trials(config, cost, workers=2)

    def test_pool_size_is_clamped(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(sim, "ProcessPoolExecutor", recording_pool(sizes))
        monkeypatch.setattr(sim, "_available_cpus", lambda: 3)
        few = cfg(trials=2)
        cost = few.costs[0]
        assert run_trials(few, cost, workers=64) == run_trials(few, cost)
        many = cfg(trials=50)
        assert run_trials(many, cost, workers=64) == run_trials(many, cost)
        assert sizes == [2, 3]  # fewer chunks than CPUs, then fewer CPUs than workers

    @pytest.mark.parametrize("policy", sorted(sim.POLICIES))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_builds_one_generator_per_trial_and_at_most_one_pool(
            self, monkeypatch, policy, workers):
        # With the thread pool every generator is built in this process and counted.
        seeds, pools = [], []
        default_rng = np.random.default_rng

        def counting_rng(seed):
            seeds.append(tuple(seed))
            return default_rng(seed)

        monkeypatch.setattr(sim.np.random, "default_rng", counting_rng)
        monkeypatch.setattr(sim, "ProcessPoolExecutor", recording_pool(pools))
        monkeypatch.setattr(sim, "_CHUNK", 8)  # several chunks of (trial, cost) rows
        one_target = sim.POLICIES[policy].targets == "one"
        config = cfg(policy=policy, model=Bernoulli(0.2, 0.7), num_targets=1 if one_target else 2,
                     neg_log_c=(1.0, 4.0, 2.0, 3.0), trials=30)
        run_experiment(config, workers=workers)
        assert sorted(seeds) == [(config.seed, t) for t in range(config.trials)]
        assert len(pools) == (workers > 1)

    def test_trace_replays_observation_stream(self):
        config = cfg(trials=1)
        cost = config.costs[0]
        trace = []
        result = run_trial(config, cost, 5, trace=trace)
        assert len(trace) == result.tau
        assert result.observations_taken == sum(len(obs) for _, obs in trace)
        for cells, obs in trace:
            assert set(cells) == set(obs)


class TestAggregate:
    @staticmethod
    def trial(tau, correct=True, tau_d=None, truncated=False):
        return tau, correct, tau if tau_d is None else tau_d, truncated

    @staticmethod
    def columns(*trials):
        """Two-cell trials, the target in cell 0, as columns; a wrong trial decides cell 1."""
        n = len(trials)
        tau, correct, tau_d, truncated = (
            np.array([trial[i] for trial in trials], dtype=dtype)
            for i, dtype in enumerate((np.int64, bool, np.int64, bool)))
        truth = np.zeros((n, 2), dtype=bool)
        truth[:, 0] = True
        decided = np.zeros((n, 2), dtype=bool)
        decided[np.arange(n), (~correct).astype(int)] = ~truncated
        return TrialColumns(truth, decided, correct, tau, tau_d, truncated)

    def test_two_point_hand_values(self):
        cost = 0.01
        m = aggregate(self.columns(self.trial(8), self.trial(12)), cost)
        assert m.trial_count == 2
        assert m.p_e == 0.0
        assert m.mean_tau == pytest.approx(10.0)
        assert m.sigma == pytest.approx(2 * math.sqrt(2))
        assert m.bayes_risk == pytest.approx(0.1)
        # risk samples are {0.08, 0.12}: sd 0.02*sqrt(2), over sqrt(2)
        assert m.risk_stderr == pytest.approx(0.02)
        half = 1.959963984540054 * m.sigma / math.sqrt(2)
        assert m.ci_low == pytest.approx(10.0 - half)
        assert m.ci_high == pytest.approx(10.0 + half)

    def test_error_indicator_feeds_risk(self):
        cost = 0.1
        m = aggregate(self.columns(self.trial(10), self.trial(10, correct=False)), cost)
        assert m.p_e == 0.5
        assert m.bayes_risk == pytest.approx(0.5 + 0.1 * 10)

    def test_detection_time_separate_from_stop_time(self):
        m = aggregate(self.columns(self.trial(20, tau_d=5)), 0.01)
        assert m.mean_tau == 20.0
        assert m.mean_tau_d == 5.0
        assert m.bayes_risk == pytest.approx(0.05)

    def test_degenerate_spread(self):
        m = aggregate(self.columns(self.trial(10)), 0.01)
        assert m.sigma == 0.0
        assert m.risk_stderr == 0.0
        assert m.r_empirical == 0.0
        assert (m.ci_low, m.ci_high) == (10.0, 10.0)

    def test_truncations_counted(self):
        m = aggregate(self.columns(self.trial(10), self.trial(10, truncated=True)), 0.01)
        assert m.truncations == 1

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            aggregate(self.columns(), 0.01)


def test_error_probability_tracks_cost_bound():
    # the stopping threshold -log c caps the error rate near (M-1) c
    config = cfg(num_cells=4, trials=1500, neg_log_c=(3.0,), seed=11)
    (_, m), = run_experiment(config)
    bound = 3 * math.exp(-3.0)
    slack = 3 * math.sqrt(max(m.p_e, 1e-4) * (1 - m.p_e) / m.trial_count)
    assert m.p_e <= bound + slack

def test_mean_tau_grows_with_threshold():
    config = cfg(trials=400, neg_log_c=(1.0, 2.5, 4.0), seed=2)
    rows = run_experiment(config)
    taus = [m.mean_tau for _, m in rows]
    assert taus[0] < taus[1] < taus[2]


def test_unknown_count_declares_before_stopping():
    # one real target under a two-target cap: the declaration lands well
    # before the remaining cells are cleared, so tau_d < tau on average
    config = cfg(policy="unknown_l", num_cells=3, num_targets=2,
                 model=Bernoulli(0.1, 0.6), true_target_count=1,
                 neg_log_c=(4.0,), trials=300, seed=5)
    (_, m), = run_experiment(config)
    assert m.mean_tau_d < m.mean_tau
    assert m.p_e < 0.5


def test_generic_policy_decides_within_family():
    config = cfg(policy="chernoff_generic", num_cells=3, num_targets=2,
                 model=Bernoulli(0.1, 0.6), neg_log_c=(4.0,), trials=50, seed=9)
    cost = config.costs[0]
    results = run_trials(config, cost)
    assert results == run_trials(config, cost)
    for r in results:
        assert len(r.true_hypothesis) == 2
        assert r.decision is not None and 1 <= len(r.decision) <= 2
        assert r.decision == tuple(sorted(r.decision))
        assert r.correct == (r.decision == r.true_hypothesis)


def test_fixed_hypothesis_pins_truth():
    config = cfg(fixed_hypothesis=(2,), trials=25)
    for r in run_trials(config, config.costs[0]):
        assert r.true_hypothesis == (2,)


def test_priors_skew_truth_draws():
    config = cfg(num_cells=3, priors=(0.998, 0.001, 0.001), trials=200, seed=13)
    results = run_trials(config, config.costs[0])
    share = sum(1 for r in results if r.true_hypothesis == (0,)) / len(results)
    assert share > 0.95


def test_tau1_bounded_by_tau_on_correct_trials():
    config = cfg(trials=150, diagnostics=True, seed=17)
    results = run_trials(config, config.costs[0])
    seen = 0
    for r in results:
        if r.correct:
            assert 1 <= r.tau1 <= r.tau
            seen += 1
    assert seen > 100


def test_truncation_floors_every_trial():
    # per-round LLR steps are bounded by log(7/3), so two rounds can never
    # bridge a gap of 6 and every trial must hit the round cap
    config = cfg(num_cells=2, probes_per_round=1, model=Bernoulli(0.3, 0.7),
                 neg_log_c=(6.0,), trials=30, max_rounds=2, seed=1)
    (_, m), = run_experiment(config)
    assert m.truncations == 30
    assert m.p_e == 1.0
    assert m.mean_tau == 2.0


class TestDecayDiagnostic:
    def test_too_few_trials_is_inconclusive(self):
        config = cfg(trials=10)
        report = tau1_decay_diagnostic(config, config.costs[0])
        assert report.inconclusive
        assert report.gamma_hat is None

    def test_healthy_run_fits_positive_rate(self):
        config = cfg(trials=1200, neg_log_c=(3.0,), seed=23)
        report = tau1_decay_diagnostic(config, config.costs[0])
        assert not report.inconclusive
        assert report.gamma_hat > 0
        assert report.tail_points >= 5
        assert report.rms_residual < 1.0

    def test_rejects_multi_target_policies(self):
        config = cfg(policy="dgf_l", num_targets=2)
        with pytest.raises(ValueError):
            tau1_decay_diagnostic(config, config.costs[0])
