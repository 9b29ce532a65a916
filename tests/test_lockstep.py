"""The lockstep engine against one-trial-at-a-time scalar references.

The references below are the scalar trial loops written out from the
public step rules, ``SearchState``, ``update`` and ``model.sample`` (for
``chernoff_generic``: per-cell sums, hypothesis scores and
``chernoff_generic_step``), drawing every variate one at a time in the
order the reproducibility contract in ``anomsearch.sim`` fixes, policy
draws included. The engine must reproduce them exactly, trace and all,
for every policy, model family and regime, with or without a pinned truth
or priors, under truncation and the tau1 diagnostic, and for any chunk and
block size. ``reference_aggregate`` is the per-object reduction that
``aggregate`` replaced; the engine's aggregates must equal it bit for bit.
"""

import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.stats import norm

from anomsearch import (
    AggregateMetrics,
    Bernoulli,
    ExperimentConfig,
    Exponential,
    Gaussian,
    PolicyConfig,
    SearchState,
    Stop,
    Tabulated,
    TrialResult,
    anomaly_hypotheses,
    chernoff_generic_step,
    chernoff_step,
    dgf_step,
    dgfl_step,
    generic_stop_margin,
    hypothesis_action_kl,
    maximin_action_distribution,
    ml_hypothesis,
    run_experiment,
    run_trial,
    run_trials,
    seq_dgfl_step,
    unknownl_step,
)
from anomsearch import sim
from anomsearch.policies import Declare
from anomsearch.state import update

STEPS = {"dgf": dgf_step, "chernoff": chernoff_step, "dgf_l": dgfl_step,
         "seq_dgf_l": seq_dgfl_step, "unknown_l": unknownl_step}
POLICIES = sorted([*STEPS, "chernoff_generic"])
SINGLE_TARGET = ("dgf", "chernoff")
UNKNOWN_COUNT = ("unknown_l", "chernoff_generic")

# (f, g) pairs whose KL ratio D(f||g)/D(g||f) exceeds 4, so that for M <= 5
# every L sits in the "f" regime and the swapped pair in the "g" regime.
# The Gaussian pair is symmetric: its regime follows from M and L alone.
MODELS = {
    "exponential": lambda swap: Exponential(10.0, 0.5) if swap else Exponential(0.5, 10.0),
    "bernoulli": lambda swap: Bernoulli(0.9999, 0.3) if swap else Bernoulli(0.3, 0.9999),
    "tabulated": lambda swap: Tabulated(
        (0.0, 1.0, 2.0),
        *(((0.0001, 0.4999, 0.5), (0.7, 0.2, 0.1)) if swap
          else ((0.7, 0.2, 0.1), (0.0001, 0.4999, 0.5)))),
    "gaussian": lambda swap: Gaussian(1.5, 0.0) if swap else Gaussian(0.0, 1.5),
}


def draw_truth(config, rng):
    if config.fixed_hypothesis is not None:
        return config.fixed_hypothesis
    m = config.num_cells
    if config.policy in SINGLE_TARGET:
        u = rng.random()
        acc = 0.0
        for cell, p in enumerate(config.priors):
            acc += p
            if u < acc:
                return (cell,)
        return (m - 1,)
    pool = list(range(m))
    for i in range(config.true_target_count):
        j = i + int(rng.integers(m - i))
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:config.true_target_count]))


def scalar_reference(config, cost, trial_index):
    """One trial, one variate at a time; returns (TrialResult, trace)."""
    if config.policy == "chernoff_generic":
        return generic_reference(config, cost, trial_index)
    rng = np.random.default_rng([config.seed, trial_index])
    truth = draw_truth(config, rng)
    pcfg = PolicyConfig.for_model(config.model, config.num_cells, config.probes_per_round,
                                  cost, config.num_targets)
    state = SearchState(config.num_cells)
    step = STEPS[config.policy]
    model = config.model
    track_tau1 = config.diagnostics and config.policy in SINGLE_TARGET
    last_break = 0
    observations_taken = 0
    decision = None
    trace = []
    while True:
        action = step(state, pcfg, rng) if config.policy == "chernoff" else step(state, pcfg)
        if isinstance(action, Stop):
            decision = action.decision
            break
        if isinstance(action, Declare):
            state.declare(action.cells, action.kind)
            continue
        if state.n >= config.max_rounds:
            break
        observations = {cell: model.sample(cell in truth, rng) for cell in sorted(action.cells)}
        update(state, action.cells, observations, model)
        observations_taken += len(action.cells)
        trace.append((action.cells, observations))
        if track_tau1 and any(state.s[j] >= state.s[truth[0]]
                              for j in range(config.num_cells) if j != truth[0]):
            last_break = state.n
    abnormal_times = [d.time for d in state.declared if d.kind == "abnormal"]
    result = TrialResult(
        true_hypothesis=truth,
        decision=decision,
        correct=decision is not None and decision == truth,
        tau=state.n,
        tau_d=max(abnormal_times, default=state.n),
        observations_taken=observations_taken,
        tau1=last_break + 1 if track_tau1 else None,
        truncated=decision is None,
    )
    return result, trace


@functools.lru_cache(maxsize=None)
def generic_mixtures(model, num_cells, max_targets):
    hyps = anomaly_hypotheses(num_cells, max_targets=max_targets)
    kl = hypothesis_action_kl(model, hyps, num_cells)
    return hyps, tuple(maximin_action_distribution(kl, i)[0] for i in range(len(hyps)))


def generic_reference(config, cost, trial_index):
    """chernoff_generic one trial at a time: bare per-cell sums, every
    hypothesis scored each round, one mixture draw before each observation."""
    rng = np.random.default_rng([config.seed, trial_index])
    truth = draw_truth(config, rng)
    hyps, q_cache = generic_mixtures(config.model, config.num_cells, config.num_targets)
    threshold = -math.log(cost)
    model = config.model
    s = [0.0] * config.num_cells
    scores = [0.0] * len(hyps)
    n = 0
    decision = None
    trace = []
    while True:
        for idx, h in enumerate(hyps):
            total = 0.0
            for cell in h:
                total += s[cell]
            scores[idx] = total
        i_hat = ml_hypothesis(scores)
        if generic_stop_margin(scores, i_hat) >= threshold:
            decision = hyps[i_hat]
            break
        if n >= config.max_rounds:
            break
        cell = chernoff_generic_step(scores, rng, q_cache)
        y = model.sample(cell in truth, rng)
        s[cell] += model.llr(y)
        n += 1
        trace.append(((cell,), {cell: y}))
    result = TrialResult(true_hypothesis=truth, decision=decision, correct=decision == truth,
                         tau=n, tau_d=n, observations_taken=n, truncated=decision is None)
    return result, trace


def reference_aggregate(results, cost):
    """AggregateMetrics of a list of TrialResults, read back one object at a time."""
    n = len(results)
    taus = np.fromiter((r.tau for r in results), dtype=float, count=n)
    tau_ds = np.fromiter((r.tau_d for r in results), dtype=float, count=n)
    errors = np.fromiter((0.0 if r.correct else 1.0 for r in results), dtype=float, count=n)
    p_e = float(errors.mean())
    mean_tau = float(taus.mean())
    mean_tau_d = float(tau_ds.mean())
    risk_samples = errors + cost * tau_ds
    if n >= 2:
        sigma = float(taus.std(ddof=1))
        risk_stderr = float(risk_samples.std(ddof=1)) / math.sqrt(n)
    else:
        sigma = 0.0
        risk_stderr = 0.0
    half = float(norm.ppf(0.975)) * sigma / math.sqrt(n)
    if sigma > 0.0:
        q_low, q_high = np.quantile(taus, [0.025, 0.975])
        r_empirical = float(q_high - q_low) / (2.0 * sigma)
    else:
        r_empirical = 0.0
    return AggregateMetrics(
        trial_count=n, p_e=p_e, mean_tau=mean_tau, mean_tau_d=mean_tau_d,
        bayes_risk=p_e + cost * mean_tau_d, risk_stderr=risk_stderr, sigma=sigma,
        ci_low=mean_tau - half, ci_high=mean_tau + half, r_empirical=r_empirical,
        truncations=sum(1 for r in results if r.truncated))


@st.composite
def configs(draw, policy, kind, swap):
    m = draw(st.integers(2, 5))
    k, l = 1, 1
    if policy in ("dgf", "chernoff", "dgf_l"):
        k = draw(st.integers(1, m))
    if policy not in SINGLE_TARGET:
        l = draw(st.integers(1, m - 1))
    truth = draw(st.sampled_from(["drawn", "fixed",
                                  "priors" if policy in SINGLE_TARGET else "count"]))
    extra = {}
    count = draw(st.integers(1, l)) if policy in UNKNOWN_COUNT else l
    if truth == "fixed":
        extra["fixed_hypothesis"] = tuple(draw(st.permutations(range(m)))[:count])
    elif truth == "priors":
        weights = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
        extra["priors"] = tuple(w / sum(weights) for w in weights)
    elif truth == "count":
        extra["true_target_count"] = count
    return ExperimentConfig(
        num_cells=m,
        probes_per_round=k,
        policy=policy,
        model=MODELS[kind](swap),
        neg_log_c=(draw(st.floats(0.5, 9.0)),),
        trials=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**32)),
        num_targets=l,
        max_rounds=draw(st.sampled_from([1, 2, 5, 1_000_000])),
        diagnostics=draw(st.booleans()),
        **extra,
    )


@pytest.mark.parametrize("swap", [False, True], ids=["f_regime", "g_regime"])
@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), chunk=st.sampled_from([1, 3, 1024]), block_rounds=st.sampled_from([1, 2, 32]))
def test_engine_matches_scalar_reference(policy, kind, swap, data, chunk, block_rounds):
    config = data.draw(configs(policy, kind, swap))
    cost = config.costs[0]
    pcfg = PolicyConfig.for_model(config.model, config.num_cells, config.probes_per_round,
                                  cost, config.num_targets)
    if kind != "gaussian" and policy != "chernoff_generic":
        regime = pcfg.single_regime if policy in SINGLE_TARGET else pcfg.multi_regime
        assert regime == ("g" if swap else "f")
    expected = [scalar_reference(config, cost, t) for t in range(config.trials)]
    with mock.patch.object(sim, "_CHUNK", chunk), \
            mock.patch.object(sim, "_BLOCK_ROUNDS", block_rounds):
        results = run_trials(config, cost)
        assert results == [result for result, _ in expected]
        for t, (result, trace) in enumerate(expected):
            replay = []
            assert run_trial(config, cost, t, trace=replay) == result
            assert replay == trace


@pytest.mark.parametrize("swap", [False, True], ids=["f_regime", "g_regime"])
@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), kind=st.sampled_from(sorted(MODELS)),
       grid=st.lists(st.sampled_from([0.5, 1.0, 2.5, 4.0, 6.0, 9.0]) | st.floats(0.5, 9.0),
                     min_size=1, max_size=4),
       chunk=st.sampled_from([1, 3, 1024]), block_rounds=st.sampled_from([1, 2, 32]),
       workers=st.sampled_from([1, 2]))
def test_grid_matches_per_cost_runs(policy, swap, data, kind, grid, chunk, block_rounds,
                                    workers):
    # One pass over a whole grid, repeated and unsorted costs included,
    # must give each cost exactly the results of a run at that cost alone.
    config = dataclasses.replace(data.draw(configs(policy, kind, swap)), neg_log_c=tuple(grid))
    expected = [[scalar_reference(config, cost, t)[0] for t in range(config.trials)]
                for cost in config.costs]
    with mock.patch.object(sim, "_CHUNK", chunk), \
            mock.patch.object(sim, "_BLOCK_ROUNDS", block_rounds):
        assert [sim._trial_results(trials, config.probes_per_round)
                for trials in sim._run_grid(config, config.costs, workers)] == expected
        assert [run_trials(config, cost) for cost in config.costs] == expected
        assert run_experiment(config, workers) == [
            (cost, reference_aggregate(results, cost))
            for cost, results in zip(config.costs, expected)]


@pytest.fixture(scope="module", params=SINGLE_TARGET)
def large_grid(request):
    """A fig2-shaped 10^4-trial grid of five costs and its per-object reference aggregates."""
    config = ExperimentConfig(num_cells=5, probes_per_round=1, policy=request.param,
                              model=Exponential(0.5, 10.0), neg_log_c=(0.5, 1.0, 1.5, 2.0, 3.0),
                              trials=10_000, seed=2024)
    return config, [(cost, reference_aggregate(run_trials(config, cost), cost))
                    for cost in config.costs]


@pytest.mark.parametrize("workers", [1, 2])
def test_aggregates_match_per_object_reduction_at_scale(large_grid, workers):
    # The goldens' 300 trials are too few to show a change in reduction order.
    config, expected = large_grid
    got = run_experiment(config, workers)
    assert [cost for cost, _ in got] == [cost for cost, _ in expected]
    for (_, metrics), (_, reference) in zip(got, expected):
        for field in dataclasses.fields(AggregateMetrics):
            assert getattr(metrics, field.name) == getattr(reference, field.name), field.name


@pytest.mark.parametrize("policy, overrides", [
    ("dgf_l", dict(num_cells=8, probes_per_round=3, num_targets=2,
                   model=Bernoulli(0.1, 0.4))),
    ("unknown_l", dict(num_cells=3, num_targets=2, model=Bernoulli(0.1, 0.6),
                       fixed_hypothesis=(0,))),
    ("seq_dgf_l", dict(num_cells=4, num_targets=2, model=Bernoulli(0.1, 0.4))),
    ("dgf", dict(num_cells=5, model=Exponential(2.0, 4.0), diagnostics=True)),
])
def test_long_trials_refill_their_blocks(policy, overrides):
    config = ExperimentConfig(probes_per_round=overrides.pop("probes_per_round", 1),
                              policy=policy, neg_log_c=(8.0,), trials=40, seed=99, **overrides)
    cost = config.costs[0]
    results = run_trials(config, cost)
    assert max(r.tau for r in results) > sim._BLOCK_ROUNDS
    assert results == [scalar_reference(config, cost, t)[0] for t in range(config.trials)]


@pytest.mark.parametrize("policy, regime, overrides", [
    ("chernoff", "f", dict(num_cells=4, probes_per_round=4, model=Exponential(0.5, 10.0))),
    ("chernoff", "g", dict(num_cells=5, probes_per_round=3, model=Exponential(10.0, 0.5))),
    ("chernoff", "f", dict(num_cells=5, probes_per_round=2, model=Exponential(0.5, 10.0))),
    ("chernoff", "g", dict(num_cells=5, probes_per_round=1, model=Exponential(10.0, 0.5))),
    ("chernoff_generic", None, dict(num_cells=3, num_targets=2, model=Bernoulli(0.1, 0.6),
                                    fixed_hypothesis=(0,))),
    ("chernoff_generic", None, dict(num_cells=5, num_targets=3, model=Bernoulli(0.2, 0.7),
                                    true_target_count=2)),
], ids=["K=M", "g-leader-plus-two", "f-two-drawn", "g-leader-only", "table1", "M5-L3"])
def test_randomized_policies_match_reference(policy, regime, overrides):
    config = ExperimentConfig(probes_per_round=overrides.pop("probes_per_round", 1),
                              policy=policy, neg_log_c=(8.0,), trials=40, seed=17,
                              diagnostics=policy == "chernoff", **overrides)
    cost = config.costs[0]
    if regime is not None:
        pcfg = PolicyConfig.for_model(config.model, config.num_cells, config.probes_per_round,
                                      cost)
        assert pcfg.single_regime == regime
    expected = [scalar_reference(config, cost, t) for t in range(config.trials)]
    assert run_trials(config, cost) == [result for result, _ in expected]
    longest = max(range(config.trials), key=lambda t: expected[t][0].tau)
    replay = []
    assert run_trial(config, cost, longest, trace=replay) == expected[longest][0]
    assert replay == expected[longest][1]


@pytest.mark.parametrize("policy", POLICIES)
def test_engine_output_does_not_depend_on_worker_count(policy):
    config = ExperimentConfig(num_cells=4, probes_per_round=1, policy=policy,
                              model=Bernoulli(0.2, 0.7), neg_log_c=(4.0,), trials=50, seed=5,
                              num_targets=1 if policy in SINGLE_TARGET else 2)
    cost = config.costs[0]
    assert run_trials(config, cost, workers=1) == run_trials(config, cost, workers=2)


def test_engine_rejects_costs_outside_unit_interval():
    config = ExperimentConfig(num_cells=3, probes_per_round=1, policy="dgf",
                              model=Exponential(0.5, 10.0), neg_log_c=(2.0,), trials=3)
    for cost in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="observation cost"):
            run_trials(config, cost)
