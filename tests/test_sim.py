import math
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anomsearch import cli, sim, stream
from anomsearch import (
    AggregateMetrics,
    Bernoulli,
    ExperimentConfig,
    Exponential,
    TrialColumns,
    aggregate,
    rate_single,
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
        with pytest.raises(ValueError, match="^need at least two cells$"):
            cfg(num_cells=1)
        with pytest.raises(ValueError, match=re.escape("probes per round must lie in [1, 4], got 5")):
            cfg(probes_per_round=5)
        with pytest.raises(ValueError, match=re.escape("probes per round must lie in [1, 4], got 0")):
            cfg(probes_per_round=0)
        with pytest.raises(ValueError, match=re.escape("target count must lie in [1, 4), got 4")):
            cfg(policy="dgf_l", num_targets=4)

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
        # exp(-708) = 3.3e-308 is a normal float; exp(-709) = 1.2e-308 is subnormal.
        assert cfg(neg_log_c=(708.0,)).neg_log_c == (708.0,)
        with pytest.raises(ValueError, match="must be a normal float"):
            cfg(neg_log_c=(709.0,))
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            cfg(seed=-1)
        with pytest.raises(ValueError, match="^max_rounds must be positive, got 0$"):
            cfg(max_rounds=0)

    def test_grid_fits_one_chunk(self):
        # A chunk holds every cost of its trials, and at most _CHUNK rows:
        # one per trial for most policies, but one per (cost, trial) for
        # seq_dgf_l and unknown_l, so one trial's costs must fit in a chunk.
        assert len(cfg(neg_log_c=(1.0,) * sim._CHUNK).neg_log_c) == sim._CHUNK
        with pytest.raises(ValueError, match="grid has 1025 points; at most 1024 are supported"):
            cfg(neg_log_c=(1.0,) * (sim._CHUNK + 1))

    def test_outcome_bound_is_a_config_limit(self):
        # fig2's geometry at 10^8 trials: 28 bytes per (cost, trial) pair, 13 GiB.
        message = ("policy 'dgf': 100000000 trials at 5 costs on M = 5 cells would keep 13 GiB "
                   "of trial outcomes, more than 1 GiB; use fewer trials, a shorter -log c grid "
                   "or fewer cells")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cfg(num_cells=5, neg_log_c=(1.0, 2.0, 3.0, 4.0, 5.0), trials=10**8)

    @pytest.mark.parametrize("policy, diagnostics, geometry", [
        ("dgf", False, {}),
        ("dgf", True, {}),
        ("dgf_l", True, dict(num_cells=5, probes_per_round=2, num_targets=2)),
        ("unknown_l", True, dict(num_cells=3, num_targets=2, true_target_count=1,
                                 model=Bernoulli(0.1, 0.6))),
        ("chernoff_generic", True, dict(num_cells=3, num_targets=2, true_target_count=1,
                                        model=Bernoulli(0.1, 0.6))),
    ], ids=["dgf", "dgf-tau1", "dgf_l", "unknown_l", "chernoff_generic"])
    def test_outcome_bound_counts_the_columns_bytes(self, policy, diagnostics, geometry):
        config = cfg(policy=policy, diagnostics=diagnostics, neg_log_c=(1.0, 2.0), trials=30,
                     **geometry)
        grid = sim._run_grid(config, config.costs)
        per_pair, rest = divmod(sum(col.nbytes for col in grid if col is not None), 2 * 30)
        assert rest == 0
        # The bound admits exactly the trials whose columns fit in it.
        most = sim._MAX_OUTCOME_BYTES // (2 * per_pair)
        assert replace(config, trials=most).trials == most
        with pytest.raises(ValueError, match="GiB of trial outcomes"):
            replace(config, trials=most + 1)

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
        with pytest.raises(ValueError,
                           match="^fixed_hypothesis has 2 cells but true_target_count is 1$"):
            cfg(policy="unknown_l", num_targets=3, fixed_hypothesis=(0, 2), true_target_count=1)

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


# Each field given a value of the wrong type, and the whole message: the
# command line's words, under its names for the counts (M, K and L).
WRONG_TYPES = {
    "M-float": (dict(num_cells=5.0), "M must be an integer, got 5.0"),
    "K-float": (dict(probes_per_round=1.0), "K must be an integer, got 1.0"),
    "L-bool": (dict(num_targets=True), "L must be an integer, got True"),
    "trials-bool": (dict(trials=True), "trials must be an integer, got True"),
    "trials-float": (dict(trials=20.0), "trials must be an integer, got 20.0"),
    "seed-float": (dict(seed=1.5), "seed must be an integer, got 1.5"),
    "max_rounds-float": (dict(max_rounds=2.5), "max_rounds must be an integer, got 2.5"),
    "fixed-float-cell": (dict(fixed_hypothesis=(1.5,)),
                         "fixed_hypothesis must be null or a list of cell indices, got (1.5,)"),
    "fixed-str": (dict(fixed_hypothesis="0"),
                  "fixed_hypothesis must be null or a list of cell indices, got '0'"),
    "true_count-float": (dict(true_target_count=1.0),
                         "true_target_count must be null or an integer, got 1.0"),
    "diagnostics-str": (dict(diagnostics="yes"), "diagnostics must be true or false, got 'yes'"),
    "policy-list": (dict(policy=["dgf"]),
                    f"unknown policy ['dgf']; choose one of {sim.POLICY_NAMES}"),
    "neg_log_c-scalar": (dict(neg_log_c=2.0), "neg_log_c must be a list of numbers, got 2.0"),
    "priors-strings": (dict(num_cells=5, priors=("0.2",) * 5),
                       f"priors must be a list of numbers, got {('0.2',) * 5!r}"),
}


@pytest.mark.parametrize("overrides, message", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_config_refuses_a_value_of_the_wrong_type_by_its_field(overrides, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cfg(**overrides)


# A model that is no instance of a model class; refused by type before the
# geometry, which num_cells=1 breaks.
@pytest.mark.parametrize("model", [
    "x", None, {"kind": "exponential", "lambda_f": 0.5, "lambda_g": 10.0}, Exponential,
], ids=["str", "none", "dict", "class"])
def test_config_refuses_a_model_that_is_no_model_instance(model):
    message = f"model must be an observation model, got {model!r}"
    for overrides in ({}, dict(num_cells=1)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cfg(model=model, **overrides)


def test_config_takes_numpy_integers_as_python_ints():
    given = dict(num_cells=np.uint8(4), probes_per_round=np.int32(1), num_targets=np.int8(2),
                 trials=np.int64(40), seed=np.uint64(7), max_rounds=np.int16(200),
                 fixed_hypothesis=(np.int64(3), np.intp(1)), true_target_count=np.int8(2))
    numpy_ints = cfg(policy="unknown_l", **given)
    python_ints = cfg(policy="unknown_l", **{key: int(value) if np.isscalar(value) else
                                             tuple(map(int, value))
                                             for key, value in given.items()})
    assert numpy_ints == python_ints
    for key in given:
        value = getattr(numpy_ints, key)
        assert all(type(v) is int for v in (value if isinstance(value, tuple) else (value,)))
    assert run_experiment(numpy_ints) == run_experiment(python_ints)


@pytest.mark.parametrize("trial_index", [-1, np.int64(-3), True, 1.0, "1"])
def test_run_trial_rejects_a_trial_index_that_is_not_a_non_negative_integer(trial_index):
    message = f"trial_index must be a non-negative integer, got {trial_index!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_trial(cfg(), 0.05, trial_index)


def test_run_trial_takes_a_numpy_integer_trial_index():
    assert run_trial(cfg(), 0.05, np.int64(3)) == run_trial(cfg(), 0.05, 3)


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
        trial_generators = stream._trial_generators

        def counting_generators(seed, trials):
            seeds.extend((seed, t) for t in trials)
            return trial_generators(seed, trials)

        monkeypatch.setattr(stream, "_trial_generators", counting_generators)
        monkeypatch.setattr(sim, "ProcessPoolExecutor", recording_pool(pools))
        monkeypatch.setattr(sim, "_CHUNK", 8)  # several chunks of (trial, cost) rows
        one_target = sim.POLICIES[policy].targets == "one"
        config = cfg(policy=policy, model=Bernoulli(0.2, 0.7), num_targets=1 if one_target else 2,
                     neg_log_c=(1.0, 4.0, 2.0, 3.0), trials=30)
        run_experiment(config, workers=workers)
        assert sorted(seeds) == [(config.seed, t) for t in range(config.trials)]
        assert len(pools) == (workers > 1)

    @pytest.mark.parametrize("run", ["run_experiment", "run_trials"])
    def test_workers_follow_the_number_rule(self, monkeypatch, run):
        # A count that is no integer is refused before any pool starts; a
        # NumPy integer runs as the int it equals.
        sizes = []
        monkeypatch.setattr(sim, "ProcessPoolExecutor", recording_pool(sizes))
        monkeypatch.setattr(sim, "_available_cpus", lambda: 2)
        config = cfg(trials=20, neg_log_c=(1.0, 3.0))
        go = {"run_experiment": run_experiment,
              "run_trials": lambda config, workers: run_trials(config, config.costs[1], workers)}[run]
        for workers in ("2", None, 1.5, 2.5, True):
            message = f"workers must be an integer, got {workers!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                go(config, workers)
        assert sizes == []
        assert go(config, np.int64(2)) == go(config, 2) == go(config, 1)
        assert sizes == [2, 2]


class TestAggregate:
    @staticmethod
    def trial(tau, correct=True, tau_d=None, truncated=False):
        return tau, correct, tau if tau_d is None else tau_d, truncated

    @staticmethod
    def columns(*trials):
        """Two-cell trials, the target in cell 0, as a grid of one row; a wrong trial
        decides cell 1."""
        n = len(trials)
        tau, correct, tau_d, truncated = (
            np.array([trial[i] for trial in trials], dtype=dtype)
            for i, dtype in enumerate((np.int64, bool, np.int64, bool)))
        truth = np.zeros((n, 2), dtype=bool)
        truth[:, 0] = True
        decided = np.zeros((n, 2), dtype=bool)
        decided[np.arange(n), (~correct).astype(int)] = ~truncated
        return TrialColumns(*(col[None] for col in (truth, decided, correct, tau, tau_d,
                                                    truncated)))

    def test_two_point_hand_values(self):
        cost = 0.01
        m, = aggregate(self.columns(self.trial(8), self.trial(12)), [cost])
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
        m, = aggregate(self.columns(self.trial(10), self.trial(10, correct=False)), [cost])
        assert m.p_e == 0.5
        assert m.bayes_risk == pytest.approx(0.5 + 0.1 * 10)

    def test_detection_time_separate_from_stop_time(self):
        m, = aggregate(self.columns(self.trial(20, tau_d=5)), [0.01])
        assert m.mean_tau == 20.0
        assert m.mean_tau_d == 5.0
        assert m.bayes_risk == pytest.approx(0.05)

    def test_degenerate_spread(self):
        m, = aggregate(self.columns(self.trial(10)), [0.01])
        assert m.sigma == 0.0
        assert m.risk_stderr == 0.0
        assert m.r_empirical == 0.0
        assert (m.ci_low, m.ci_high) == (10.0, 10.0)

    def test_truncations_counted(self):
        m, = aggregate(self.columns(self.trial(10), self.trial(10, truncated=True)), [0.01])
        assert m.truncations == 1

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            aggregate(self.columns(), [0.01])

    @pytest.mark.parametrize("trials", [1, 2])
    def test_needs_one_cost_per_grid_row(self, trials):
        config = cfg(neg_log_c=(1.0, 2.0, 3.0), trials=trials)
        grid = sim._run_grid(config, config.costs)
        for costs in (config.costs[:1], config.costs * 2):
            message = f"need one cost per grid row, got {len(costs)} for 3 rows"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                aggregate(grid, costs)
        assert len(aggregate(grid, config.costs)) == 3

    @pytest.mark.parametrize("n", [1, 1000])
    def test_grid_rows_reduce_as_one_row_grids(self, n):
        # NumPy sums pairwise, in blocks of 128, along the contiguous axis
        # only: each row of a C-contiguous grid must reduce bit for bit as a
        # grid of that row alone. The middle row has sigma 0, its
        # neighbours sigma > 0 (for n > 1).
        rng = np.random.default_rng(n)

        def varied():
            return [self.trial(int(t), bool(ok), int(td), bool(cut)) for t, ok, td, cut in zip(
                rng.integers(1, 90, n), rng.random(n) < 0.8, rng.integers(1, 90, n),
                rng.random(n) < 0.1)]

        rows = [self.columns(*trials) for trials in (varied(), [self.trial(17)] * n, varied())]
        grid = TrialColumns(*(np.concatenate(cols) for cols in zip(*rows) if cols[0] is not None))
        costs = [math.exp(-t) for t in (0.7, 2.3, 9.1)]
        assert all(col.flags.c_contiguous for col in grid[:6])
        assert aggregate(grid, costs) == [
            aggregate(row, [cost])[0] for row, cost in zip(rows, costs)]
        if n > 1:
            assert [m.sigma > 0.0 for m in aggregate(grid, costs)] == [True, False, True]


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 5), n=st.integers(2, 400), top=st.sampled_from([2, 50, 10**6]),
       seed=st.integers(0, 2**32 - 1))
def test_quantiles_equal_numpy_quantile(rows, n, top, seed):
    # aggregate's order statistics, on integer-valued stopping times as the
    # engine gives them, must be np.quantile's bit for bit.
    taus = np.random.default_rng(seed).integers(0, top, (rows, n)).astype(float)
    want = np.quantile(taus, [0.025, 0.975], axis=1)
    got = sim._quantiles(taus, (0.025, 0.975))
    assert [q.tobytes() for q in got] == [q.tobytes() for q in want]


def test_aggregate_leaves_numpy_ma_unloaded():
    # np.quantile imports numpy.ma on its first call in a process (about
    # 15 ms); aggregate gets its quantiles without it.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; from anomsearch import Exponential, ExperimentConfig, run_experiment; "
            "cfg = ExperimentConfig(num_cells=4, probes_per_round=1, policy='dgf', "
            "model=Exponential(0.5, 10.0), neg_log_c=(3.0,), trials=50, seed=7); "
            "(_, m), = run_experiment(cfg); "
            "print(m.sigma > 0, m.r_empirical > 0, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["True", "True", "False"]


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


def test_run_trial_refuses_a_trace_that_is_no_list(monkeypatch):
    # Refused before the first round: the engine, here None, is never reached.
    monkeypatch.setattr(sim, "_run_lockstep", None)
    config = cfg(trials=1)
    for trace in ((), {}, "trace"):
        message = f"trace must be None or a list, got {trace!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_trial(config, config.costs[0], 0, trace)


def test_truncation_floors_every_trial():
    # per-round LLR steps are bounded by log(7/3), so two rounds can never
    # bridge a gap of 6 and every trial must hit the round cap
    config = cfg(num_cells=2, probes_per_round=1, model=Bernoulli(0.3, 0.7),
                 neg_log_c=(6.0,), trials=30, max_rounds=2, seed=1)
    with pytest.warns(RuntimeWarning, match="budget of 2"):
        (_, m), = run_experiment(config)
    assert m.truncations == 30
    assert m.p_e == 1.0
    assert m.mean_tau == 2.0


# Near-equal laws: a trial at -log c = 30 needs about 1.26e9 rounds. At the
# default budget of 10^6 rounds, two trials of it ran for seconds only to be
# truncated, and the command line's resolver refuses it.
SLOW = dict(num_cells=5, probes_per_round=1, policy="dgf", model=Bernoulli(0.3, 0.3001), trials=2)


def spec_run(config, monkeypatch):
    """The first point's truncations of ``cli.run_spec`` on a RunSpec of
    ``config``'s fields, built by hand, as the resolver refuses a config over
    the budget, and run under ``config``'s budget."""
    experiment_config = cli.RunSpec.experiment_config
    monkeypatch.setattr(cli.RunSpec, "experiment_config", lambda spec, policy: replace(
        experiment_config(spec, policy), max_rounds=config.max_rounds))
    spec = cli.RunSpec(policies=(config.policy,), M=config.num_cells, K=config.probes_per_round,
                       model=config.model, neg_log_c=config.neg_log_c, trials=config.trials)
    return cli.run_spec(spec)[0]["truncations"]


# Every run of a whole grid, each returning its first point's truncations.
GRID_RUNS = {
    "run_experiment": lambda config, monkeypatch: run_experiment(config)[0][1].truncations,
    "run_spec": spec_run,
}


# At -log c = 1e-7 the estimate is about 4 rounds, within the budget of 10.
@pytest.mark.parametrize("grid", [(30.0,), (30.0, 1e-7, 31.0)], ids=["one", "three"])
def test_library_run_over_the_round_budget_warns_once_per_point(grid, monkeypatch):
    config = ExperimentConfig(**SLOW, neg_log_c=grid, max_rounds=10)
    i_star = rate_single(config.model, 5, 1).i_star
    for name, run in GRID_RUNS.items():
        with pytest.warns(RuntimeWarning) as record:
            truncations = run(config, monkeypatch)
        assert [str(w.message) for w in record] == [
            f"policy 'dgf': at -log c = {t:g} a trial needs about {t / i_star:.3g} rounds, "
            f"more than the budget of 10" for t in grid if t > 1e-7], name
        assert "about 1.26e+09 rounds" in str(record[0].message)
        if name == "run_experiment":  # run_spec's warnings point into cli
            assert {w.filename for w in record} == {__file__}  # the caller's line
        assert truncations == 2  # it runs, and every trial is truncated


def test_library_run_within_the_round_budget_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_experiment(cfg(neg_log_c=(1.0, 3.0), trials=20))
        run_trials(cfg(trials=20), 0.05)
        tau1_decay_diagnostic(cfg(trials=20), 0.05)


# Each runs one cost, and warns at that cost, whatever the config's grid:
# -log c = 30 is over the budget of 10 and 1e-7 within it.
@pytest.mark.parametrize("grid", [(30.0,), (1e-7,)], ids=["over", "within"])
@pytest.mark.parametrize("run", [run_trials, tau1_decay_diagnostic],
                         ids=["run_trials", "tau1_decay_diagnostic"])
def test_single_cost_run_warns_at_the_cost_it_runs(run, grid):
    config = ExperimentConfig(**SLOW, neg_log_c=grid, max_rounds=10)
    # A cost that is no number is refused before any warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^observation cost must be a real number, got None$"):
            run(config, None)
    with pytest.warns(RuntimeWarning) as record:
        run(config, math.exp(-30.0))
    assert [str(w.message) for w in record] == [
        "policy 'dgf': at -log c = 30 a trial needs about 1.26e+09 rounds, "
        "more than the budget of 10"]
    assert record[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(replace(config, neg_log_c=(30.0,)), math.exp(-1e-7))


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

    def test_validates_only_the_grid_point_it_runs(self, monkeypatch):
        # fig2 dgf at five costs and the most trials the outcome bound admits
        # (28 bytes a pair); one cost with tau1 keeps 36 bytes a trial.
        trials = sim._MAX_OUTCOME_BYTES // (5 * 28)
        assert trials == 7_669_584
        config = cfg(num_cells=5, neg_log_c=(1.0, 2.0, 3.0, 4.0, 5.0), trials=trials)
        seen, run_grid = [], sim._run_grid

        def small_run_grid(config, costs, workers=1):
            seen.append((config, costs))
            return run_grid(replace(config, trials=30), costs, workers)

        monkeypatch.setattr(sim, "_run_grid", small_run_grid)
        tau1_decay_diagnostic(config, math.exp(-1.0))
        ((ran, costs),) = seen
        assert ran.diagnostics and ran.neg_log_c == (1.0,) and ran.trials == trials
        assert costs == (math.exp(-1.0),)

    def test_matches_the_fit_over_its_cost_in_a_grid(self):
        # Running one cost leaves every bit of the fit as the grid's row gives it.
        config = cfg(num_cells=5, neg_log_c=(1.0, 2.0, 3.0, 4.0, 5.0), trials=600, seed=5)
        grid = sim._run_grid(replace(config, diagnostics=True), config.costs)
        for j, cost in enumerate(config.costs):
            expected = sim._fit_tau1_decay(sim._row(grid, j))
            assert tau1_decay_diagnostic(config, cost) == expected
