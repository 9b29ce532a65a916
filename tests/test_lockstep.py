"""The lockstep engine against one-trial-at-a-time scalar references.

The references below are the scalar trial loops written out from the
public step rules, ``SearchState``, ``update`` and ``model.sample`` (for
``chernoff_generic``: per-cell sums, hypothesis scores and
``chernoff_generic_step``), drawing every variate one at a time in the
order the reproducibility contract in ``anomsearch.stream`` fixes, policy
draws included. The engine must reproduce them exactly, trace and all,
for every policy, model family and regime, with or without a pinned truth
or priors, under truncation and the tau1 diagnostic, and for any chunk and
block size. ``reference_aggregate`` is the per-object reduction that
``aggregate`` replaced; the engine's aggregates must equal it bit for bit.
"""

import dataclasses
import functools
import itertools
import math
import re
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
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
    Tabulated,
    TrialResult,
    aggregate,
    anomaly_hypotheses,
    bayes_lower_bound,
    hypothesis_action_kl,
    maximin_action_distribution,
    run_experiment,
    run_trial,
    run_trials,
    tau1_decay_diagnostic,
    unknownl_lower_bound,
)
from anomsearch import sim, stream
from anomsearch.oracle import anomaly_maximin
from anomsearch.policies import (
    Declare,
    PolicyConfig,
    Probe,
    Stop,
    chernoff_generic_step,
    chernoff_step,
    dgf_step,
    dgfl_step,
    generic_stop_margin,
    ml_hypothesis,
    seq_dgfl_step,
    unknownl_step,
)
from anomsearch.rates import probing_plan
from anomsearch.state import SearchState, update

# The strategies below draw round budgets of 1, 2 and 5 rounds on purpose,
# to reach truncation, so the library's warning of a run over the budget is
# expected here; every other RuntimeWarning still fails.
pytestmark = pytest.mark.filterwarnings("ignore:.*more than the budget of:RuntimeWarning")

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


def plan_of(config):
    """The probing plan the engine builds ``config``'s rule from."""
    return probing_plan(*config.model.kl_divergences(), config.num_cells,
                        config.probes_per_round, config.num_targets)


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
    """Each target set's maximin mixture, from the closed form: a on each
    member, b on each other cell. ``test_closed_form_matches_the_lp`` checks
    it against the LP."""
    hyps = anomaly_hypotheses(num_cells, max_targets=max_targets)
    d_gf, d_fg = model.kl_divergences()
    weights = (anomaly_maximin(d_gf, d_fg, num_cells, max_targets, len(h)) for h in hyps)
    return hyps, tuple(np.where(np.isin(np.arange(num_cells), h), a, b)
                       for h, (a, b, _) in zip(hyps, weights))


# table1_example, the M=5, L=3 benchmark shape, the unit Gaussian on
# table1_example's geometry, every MODELS family both ways round on
# M = 2..5 cells with L = 1..M-1, and three larger geometries.
LP_GEOMETRIES = [
    (Bernoulli(0.1, 0.6), 3, 2), (Bernoulli(0.2, 0.7), 5, 3), (Gaussian(0.0, 1.0), 3, 2),
    *((MODELS[kind](swap), m, l) for kind in sorted(MODELS) for swap in (False, True)
      for m in range(2, 6) for l in range(1, m)),
    (Exponential(0.5, 10.0), 6, 4), (Gaussian(0.0, 1.0), 8, 3), (Bernoulli(0.2, 0.7), 10, 2),
]


def test_closed_form_matches_the_lp():
    assert len(LP_GEOMETRIES) == 86
    for model, m, l in LP_GEOMETRIES:
        d_gf, d_fg = model.kl_divergences()
        hyps, mixtures = generic_mixtures(model, m, l)
        kl = hypothesis_action_kl(model, hyps, m)
        for i, (h, q) in enumerate(zip(hyps, mixtures)):
            q_lp, v_lp = maximin_action_distribution(kl, i)
            assert anomaly_maximin(d_gf, d_fg, m, l, len(h))[2] == pytest.approx(v_lp, rel=1e-12)
            if l == 1 and d_gf == d_fg / (m - 1):
                # The tie (the Gaussian pair on two cells): every mixture is
                # optimal. HiGHS returns [1, 0] for both sets; the closed
                # form probes the ML cell, as the "g" regime does.
                assert list(q) == [float(cell in h) for cell in range(m)]
            else:
                assert q == pytest.approx(q_lp, rel=0, abs=1e-12)
    # table1_example's engine tables are the LP's bit for bit, so its goldens hold.
    model = Bernoulli(0.1, 0.6)
    hyps = anomaly_hypotheses(3, max_targets=2)
    kl = hypothesis_action_kl(model, hyps, 3)
    lp = np.array([np.cumsum(maximin_action_distribution(kl, i)[0]) for i in range(len(hyps))])
    assert np.array_equal(sim._generic_tables(model, 3, 2)[2][:, :-1], lp[:, :-1])


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


def reference_grid(config):
    """Each cost's ``scalar_reference`` (TrialResult, trace) pairs, trial by trial."""
    return [[scalar_reference(config, cost, t) for t in range(config.trials)]
            for cost in config.costs]


def results_of(per_cost):
    """The TrialResults of one cost's reference pairs."""
    return [result for result, _ in per_cost]


def grid_results(grid, k):
    """Each cost's TrialResults read back from a grid run at K probes per round."""
    return [sim._trial_results(sim._row(grid, j), k) for j in range(len(grid.tau))]


def assert_replays(config, cost, per_cost):
    """``run_trial`` replays the shortest, the median and the longest of one
    cost's reference trials, trace and all."""
    by_tau = sorted(range(config.trials), key=lambda t: per_cost[t][0].tau)
    for t in (by_tau[0], by_tau[len(by_tau) // 2], by_tau[-1]):
        replay = []
        assert run_trial(config, cost, t, trace=replay) == per_cost[t][0]
        assert replay == per_cost[t][1]


def block_rounds(spy):
    """The block lengths a spy on ``stream._base_blocks`` saw the engine ask for."""
    return {call.args[-1] for call in spy.call_args_list}


def recording_round_draws(calls):
    """A stand-in for ``stream._round_draws`` that appends to ``calls`` each
    call's recipe, its trials, the times each callable entry was called,
    and the shape of the array drawn."""
    round_draws = stream._round_draws

    def record(draws, picks, trials):
        counts = [0] * len(draws)

        def counted(j, draw):
            def call(g):
                counts[j] += 1
                return draw(g)
            return call

        wrapped = tuple(draw if isinstance(draw, int) else counted(j, draw)
                        for j, draw in enumerate(draws))
        drawn = round_draws(wrapped, picks, trials)
        calls.append((draws, trials.tolist(), counts, drawn.shape))
        return drawn

    return record


def assert_one_round_draws(blocks, calls, config, draws, results):
    """A recipe that mixes methods skips the block machinery: a spy on
    ``stream._base_blocks`` saw no call, and the ``recording_round_draws``
    record holds, for each engine round, one call of the policy draws
    ``draws`` followed by the K base variates over the trials still live,
    each entry drawn exactly once for each of the call's trials.
    ``results`` holds every cost's trials, cost-major."""
    assert blocks.call_count == 0
    # One chunk, untruncated, one row per trial: trial t's row is live
    # through the largest tau of its costs, and the rounds run to the
    # longest such tau.
    last = [max(result.tau for result in results[t::config.trials])
            for t in range(config.trials)]

    def live(n):
        return [t for t, end in enumerate(last) if end >= n]

    base = (config.model.base_variate,) * config.probes_per_round
    expected = [(draws + base, live(n)) for n in range(max(last) + 1)]
    assert [(got, trials) for got, trials, _, _ in calls] == expected
    for got, trials, counts, shape in calls:
        assert counts == [0 if isinstance(draw, int) else len(trials) for draw in got]
        assert shape == (len(trials), len(got))


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
        assert pcfg.multi_regime == ("g" if swap else "f")
    (expected,) = reference_grid(config)
    with mock.patch.object(sim, "_CHUNK", chunk), \
            mock.patch.object(stream, "_BLOCK_ROUNDS", block_rounds):
        assert run_trials(config, cost) == results_of(expected)
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
    # Two workers run their spans on threads: the spans and their join are
    # what a worker count changes, and the tests that start real pools cover
    # pickling and processes.
    config = dataclasses.replace(data.draw(configs(policy, kind, swap)), neg_log_c=tuple(grid))
    expected = list(map(results_of, reference_grid(config)))
    with mock.patch.object(sim, "_CHUNK", chunk), \
            mock.patch.object(stream, "_BLOCK_ROUNDS", block_rounds), \
            mock.patch.object(sim, "ProcessPoolExecutor", ThreadPoolExecutor, create=True):
        grid = sim._run_grid(config, config.costs, workers)
        assert grid_results(grid, config.probes_per_round) == expected
        assert [run_trials(config, cost) for cost in config.costs] == expected
        assert run_experiment(config, workers) == [
            (cost, reference_aggregate(results, cost))
            for cost, results in zip(config.costs, expected)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("policy, overrides", [
    ("dgf", dict(num_cells=5, model=Exponential(0.5, 10.0), diagnostics=True)),
    ("dgf_l", dict(num_cells=8, probes_per_round=3, num_targets=2, model=Bernoulli(0.1, 0.4))),
])
def test_grid_columns_are_contiguous_cost_by_trial(policy, overrides, workers, monkeypatch):
    # Several chunks, and with two workers several spans, join into one
    # grid whose rows aggregate reduces along the contiguous axis.
    monkeypatch.setattr(sim, "_CHUNK", 16)
    config = ExperimentConfig(**{"probes_per_round": 1, **overrides}, policy=policy,
                              neg_log_c=(1.0, 3.0, 2.0), trials=37, seed=3)
    grid = sim._run_grid(config, config.costs, workers)
    assert (grid.tau1 is None) == (not config.diagnostics)
    for name, col in zip(grid._fields, grid):
        if col is None:
            continue
        cells = (config.num_cells,) if name in ("truth", "decided") else ()
        assert col.shape == (3, 37, *cells), name
        assert col.flags.c_contiguous, name


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_aggregates_match_per_object_reduction_on_small_grids(n):
    # Grids of n trials at three costs: a row whose taus are all equal, a
    # row with every trial in error (the last one truncated) and a row
    # with none; tau_d falls below tau where a trial declared early.
    tau = np.array([[6, 6, 6], [1, 4, 9], [2, 7, 3]])[:, :n].copy()
    tau_d = tau - np.array([[0, 1, 0], [0, 0, 0], [1, 0, 2]])[:, :n]
    correct = np.array([[True, False, True], [False] * 3, [True] * 3])[:, :n].copy()
    truncated = np.zeros_like(correct)
    truncated[1, -1] = True
    truth = np.zeros((3, n, 2), dtype=bool)
    truth[..., 0] = True
    grid = sim.TrialColumns(truth, truth & correct[..., None], correct, tau, tau_d, truncated)
    costs = (math.exp(-1.3), math.exp(-2.0), 0.3)
    got = sim.aggregate(grid, costs)
    for j, cost in enumerate(costs):
        reference = reference_aggregate(grid_results(grid, 1)[j], cost)
        for field in dataclasses.fields(AggregateMetrics):
            assert getattr(got[j], field.name) == getattr(reference, field.name), field.name


# test_benchmark_shapes_match_reference runs the dgf_l and unknown_l shapes.
# The explicit ids keep each case's name stable as cases come and go.
@pytest.mark.parametrize("policy, overrides", [
    ("seq_dgf_l", dict(num_cells=4, num_targets=2, model=Bernoulli(0.1, 0.4))),
    ("dgf", dict(num_cells=5, model=Exponential(2.0, 4.0), diagnostics=True)),
], ids=["seq_dgf_l-overrides2", "dgf-overrides3"])
def test_long_trials_refill_their_blocks(policy, overrides):
    config = ExperimentConfig(probes_per_round=1, policy=policy, neg_log_c=(8.0,), trials=40,
                              seed=99, **overrides)
    (expected,) = reference_grid(config)
    results = run_trials(config, config.costs[0])
    assert max(r.tau for r in results) > stream._BLOCK_ROUNDS
    assert results == results_of(expected)


# The long-trials benchmark shapes: dgf_l on eight Bernoulli cells, and
# unknown_l on the table1_example preset.
BENCH_SHAPES = {
    "dgf_l": dict(num_cells=8, probes_per_round=3, num_targets=2, model=Bernoulli(0.1, 0.4)),
    "unknown_l": dict(num_cells=3, probes_per_round=1, num_targets=2,
                      model=Bernoulli(0.1, 0.6), fixed_hypothesis=(0,)),
}


@pytest.mark.parametrize("policy", sorted(BENCH_SHAPES))
def test_benchmark_shapes_match_reference(policy):
    # 150 trials at the default chunk and block sizes: rows end in many
    # rounds, one or several at a time, and the longer trials refill their
    # blocks.
    config = ExperimentConfig(policy=policy, neg_log_c=(8.0,), trials=150, seed=271_828,
                              **BENCH_SHAPES[policy])
    cost = config.costs[0]
    (expected,) = reference_grid(config)
    assert run_trials(config, cost) == results_of(expected)
    assert max(result.tau for result, _ in expected) > stream._BLOCK_ROUNDS
    assert_replays(config, cost, expected)


@pytest.mark.parametrize("max_rounds", [32, 33])
@pytest.mark.parametrize("policy", sorted(BENCH_SHAPES))
def test_two_cost_grid_truncates_at_block_boundary(policy, max_rounds):
    # Two rows per trial, so both rows read their trial's block row; the
    # budget ends the grid as a block runs out (32) or one round into the
    # refilled block (33), after many rows of both costs stopped.
    config = ExperimentConfig(policy=policy, neg_log_c=(8.0, 4.0), trials=150, seed=7,
                              max_rounds=max_rounds, **BENCH_SHAPES[policy])
    assert stream._BLOCK_ROUNDS == 32
    expected = list(map(results_of, reference_grid(config)))
    grid = sim._run_grid(config, config.costs)
    assert grid_results(grid, config.probes_per_round) == expected
    for results in expected:
        truncated = sum(result.truncated for result in results)
        assert 0 < truncated < len(results)


@pytest.mark.parametrize("policy, regime, overrides", [
    ("chernoff", "f", dict(num_cells=4, probes_per_round=4, model=Exponential(0.5, 10.0))),
    ("chernoff", "g", dict(num_cells=5, probes_per_round=3, model=Exponential(10.0, 0.5))),
    ("chernoff", "f", dict(num_cells=5, probes_per_round=2, model=Exponential(0.5, 10.0))),
    ("chernoff", "g", dict(num_cells=5, probes_per_round=1, model=Exponential(10.0, 0.5))),
    ("chernoff_generic", None, dict(num_cells=3, num_targets=2, model=Bernoulli(0.1, 0.6),
                                    fixed_hypothesis=(0,))),
    ("chernoff_generic", None, dict(num_cells=5, num_targets=3, model=Bernoulli(0.2, 0.7),
                                    true_target_count=2)),
    # The randomized benchmark's fig2_chernoff config, its whole grid at once.
    ("chernoff", "f", dict(num_cells=5, model=Exponential(0.5, 10.0),
                           neg_log_c=(1.0, 2.0, 3.0, 4.0, 5.0), trials=100, seed=271_828)),
], ids=["K=M", "g-leader-plus-two", "f-two-drawn", "g-leader-only", "table1", "M5-L3",
        "fig2"])
def test_randomized_policies_match_reference(policy, regime, overrides):
    config = ExperimentConfig(**{"probes_per_round": 1, "neg_log_c": (8.0,), "trials": 40,
                                 "seed": 17, **overrides},
                              policy=policy, diagnostics=policy == "chernoff")
    pcfg = PolicyConfig.for_model(config.model, config.num_cells, config.probes_per_round,
                                  config.costs[0], config.num_targets)
    draws = sim.POLICIES[policy].rule(config, plan_of(config))[1]
    if regime is None:
        # Bernoulli cells: one uniform per round, drawn ahead with the base variates.
        assert draws == (np.random.Generator.random,)
        ahead = True
    else:
        assert pcfg.multi_regime == regime
        # Chernoff reads base variates in blocks exactly when it draws no subset.
        ahead = config.probes_per_round == config.num_cells or (
            regime == "g" and config.probes_per_round == 1)
        assert (draws == ()) == ahead
    expected = reference_grid(config)
    one_round = []
    with mock.patch.object(stream, "_base_blocks", wraps=stream._base_blocks) as blocks, \
            mock.patch.object(stream, "_round_draws", recording_round_draws(one_round)):
        grid = sim._run_grid(config, config.costs)
    if ahead:
        assert block_rounds(blocks) == {stream._BLOCK_ROUNDS}
        assert one_round == []
    else:
        assert_one_round_draws(blocks, one_round, config, draws,
                               [result for per_cost in expected for result, _ in per_cost])
    assert grid_results(grid, config.probes_per_round) == list(map(results_of, expected))
    assert_replays(config, config.costs[-1], expected[-1])


@pytest.mark.parametrize("policy", POLICIES)
def test_engine_output_does_not_depend_on_worker_count(policy):
    config = ExperimentConfig(num_cells=4, probes_per_round=1, policy=policy,
                              model=Bernoulli(0.2, 0.7), neg_log_c=(4.0,), trials=50, seed=5,
                              num_targets=1 if policy in SINGLE_TARGET else 2)
    cost = config.costs[0]
    assert run_trials(config, cost, workers=1) == run_trials(config, cost, workers=2)


@pytest.mark.parametrize("policy", POLICIES)
def test_engine_builds_no_policy_config(policy, monkeypatch):
    # The engine takes each threshold as -log c and the plan from
    # rates.probing_plan, so it runs the same grid with PolicyConfig gone.
    config = ExperimentConfig(num_cells=4, probes_per_round=1, policy=policy,
                              model=Exponential(0.5, 10.0), neg_log_c=(3.0, 1.0),
                              trials=30, seed=9, num_targets=1 if policy in SINGLE_TARGET else 2,
                              diagnostics=True)
    expected = sim._run_grid(config, config.costs)

    def no_config(*args, **kwargs):
        raise AssertionError("the engine must not build a PolicyConfig")

    monkeypatch.setattr(PolicyConfig, "for_model", no_config)
    got = sim._run_grid(config, config.costs)
    assert [None if col is None else col.tolist() for col in got] == [
        None if col is None else col.tolist() for col in expected]


# Every public entry point that takes a cost shares models.check_cost: a
# cost must be a normal float below 1. ExperimentConfig takes -log c, whose
# exp must pass it: exp(-709) is subnormal, exp(-745) is 5e-324 and exp(1000)
# overflows, while exp(log(1 / sys.float_info.min)) rounds back to a normal
# float.
COST_CONFIG = ExperimentConfig(num_cells=3, probes_per_round=1, policy="dgf",
                               model=Exponential(0.5, 10.0), neg_log_c=(2.0,), trials=3)
COST_ENTRY_POINTS = {
    "ExperimentConfig": lambda t: dataclasses.replace(COST_CONFIG, neg_log_c=(t,)),
    "run_trial": lambda cost: run_trial(COST_CONFIG, cost, 0),
    "run_trials": lambda cost: run_trials(COST_CONFIG, cost),
    "tau1_decay_diagnostic": lambda cost: tau1_decay_diagnostic(COST_CONFIG, cost),
    "aggregate": lambda cost: aggregate(sim._run_grid(COST_CONFIG, COST_CONFIG.costs), (cost,)),
    "PolicyConfig.for_model": lambda cost: PolicyConfig.for_model(COST_CONFIG.model, 5, 1, cost),
    "bayes_lower_bound": lambda cost: bayes_lower_bound(cost, 4.0),
    "unknownl_lower_bound": lambda cost: unknownl_lower_bound(cost, 1, COST_CONFIG.model),
}
LARGEST_SUBNORMAL = sys.float_info.min * (1 - 2**-52)


@pytest.mark.parametrize("name", COST_ENTRY_POINTS)
def test_engine_rejects_costs_outside_unit_interval(name):
    entry = COST_ENTRY_POINTS[name]
    if name == "ExperimentConfig":
        rejected = (0.0, -1.0, -1000.0, -math.inf, 709.0, 745.0, math.inf, math.nan)
        accepted = -math.log(sys.float_info.min)
    else:
        rejected = (0.0, 5e-324, LARGEST_SUBNORMAL, 1.0, -0.1, math.nan)
        accepted = sys.float_info.min
    for value in rejected:
        with pytest.raises(ValueError, match=re.escape(
                f"observation cost must be a normal float in [{sys.float_info.min}, 1)")):
            entry(value)
    entry(accepted)


# The cost rule refuses by type, before its range check, what is no real
# number or is a bool.
@pytest.mark.parametrize("name", [name for name in COST_ENTRY_POINTS if name != "ExperimentConfig"])
def test_entry_points_refuse_a_cost_that_is_no_number(name):
    for value in ("0.1", True, None):
        message = f"observation cost must be a real number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            COST_ENTRY_POINTS[name](value)


# chernoff_generic on M=4, L=2 cells of each model family. Its recipe is one
# uniform per round whatever the model; the engine draws it ahead in
# blocks of _BLOCK_ROUNDS rounds, before the round's base variate, when the
# base variate is a uniform too (Bernoulli, Tabulated), and under the
# ziggurat base variates (Exponential, Gaussian) one round at a time.
@pytest.mark.parametrize("kind, ahead", [
    ("bernoulli", True), ("tabulated", True), ("exponential", False), ("gaussian", False),
])
def test_chernoff_generic_draws_ahead_exactly_on_uniform_models(kind, ahead):
    config = ExperimentConfig(num_cells=4, probes_per_round=1, num_targets=2,
                              policy="chernoff_generic", model=MODELS[kind](False),
                              neg_log_c=(6.0,), trials=40, seed=23, true_target_count=1)
    cost = config.costs[0]
    assert sim.POLICIES["chernoff_generic"].rule(config, plan_of(config))[1] == (
        np.random.Generator.random,)
    (expected,) = reference_grid(config)
    one_round = []
    with mock.patch.object(stream, "_base_blocks", wraps=stream._base_blocks) as blocks, \
            mock.patch.object(stream, "_round_draws", recording_round_draws(one_round)):
        assert run_trials(config, cost) == results_of(expected)
    if ahead:
        assert block_rounds(blocks) == {stream._BLOCK_ROUNDS}
        assert one_round == []
    else:
        assert_one_round_draws(blocks, one_round, config, (np.random.Generator.random,),
                               results_of(expected))
    assert_replays(config, cost, expected)


@pytest.mark.parametrize("max_rounds", [32, 33])
def test_blocked_chernoff_generic_truncates_at_block_boundary(max_rounds):
    # The randomized benchmark's table1 shape on a two-cost grid: each
    # round of a trial's block row holds its uniform and its base variate,
    # both rows of the trial read that block row, and the budget ends the
    # grid as a block runs out (32) or one round into the refilled block (33).
    config = ExperimentConfig(policy="chernoff_generic", neg_log_c=(8.0, 4.0), trials=150,
                              seed=7, max_rounds=max_rounds, **BENCH_SHAPES["unknown_l"])
    assert stream._BLOCK_ROUNDS == 32
    assert sim.POLICIES["chernoff_generic"].rule(config, plan_of(config))[1] == (
        np.random.Generator.random,)
    expected = reference_grid(config)
    with mock.patch.object(stream, "_base_blocks", wraps=stream._base_blocks) as blocks:
        grid = sim._run_grid(config, config.costs)
    assert block_rounds(blocks) == {stream._BLOCK_ROUNDS}
    assert grid_results(grid, config.probes_per_round) == list(map(results_of, expected))
    for cost, per_cost in zip(config.costs, expected):
        truncated = sum(result.truncated for result, _ in per_cost)
        assert 0 < truncated < len(per_cost)
        assert_replays(config, cost, per_cost)


# The policies whose rules never read the threshold: one row per trial
# carries every cost of the grid. seq_dgf_l and unknown_l declare cells at
# the threshold, so each of their rows keeps one cost.
ONE_ROW_PER_TRIAL = ("chernoff", "chernoff_generic", "dgf", "dgf_l")


def rows_per_chunk(config, monkeypatch):
    """The rows of each chunk of a run of ``config``, and the run's grid."""
    rows = []
    init = sim._LiveRows.__init__

    def counting_init(self, law, *args):
        rows.append(len(law))
        init(self, law, *args)

    with monkeypatch.context() as patch:
        patch.setattr(sim._LiveRows, "__init__", counting_init)
        grid = sim._run_grid(config, config.costs)
    return rows, grid


@pytest.mark.parametrize("chunk", [8, 1024])
@pytest.mark.parametrize("policy", POLICIES)
def test_rows_per_chunk_follow_the_rule(policy, chunk, monkeypatch):
    config = ExperimentConfig(num_cells=4, probes_per_round=1, policy=policy,
                              model=Bernoulli(0.2, 0.7), neg_log_c=(3.0, 1.0, 5.0, 2.0, 4.0),
                              trials=30, seed=5, num_targets=1 if policy in SINGLE_TARGET else 2)
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    rows, grid = rows_per_chunk(config, monkeypatch)
    if policy in ONE_ROW_PER_TRIAL:
        assert rows == ([8, 8, 8, 6] if chunk == 8 else [30])
    else:
        # A chunk of 8 rows holds one trial's five (cost, trial) rows.
        assert rows == ([5] * 30 if chunk == 8 else [150])
    assert grid_results(grid, 1) == list(map(results_of, reference_grid(config)))
    if chunk == 8 or policy == "chernoff_generic":
        # chernoff_generic scores at most 400 target sets, so its M + K stays
        # at or below 401 and its chunks at _CHUNK rows.
        return

    # Wide rows: M = 600 cells, probed all at once where the policy allows,
    # for two rounds. _CHUNK_BYTES = 4 MiB then holds 4 MiB / (8 * 1200) =
    # 436 rows at K = M, and 872 rows (436 trials at two costs) at K = 1.
    one_probe = policy in ("seq_dgf_l", "unknown_l")
    wide = dataclasses.replace(config, num_cells=600, probes_per_round=1 if one_probe else 600,
                               neg_log_c=(1.0, 0.5), trials=1000, max_rounds=2, priors=None)
    rows, grid = rows_per_chunk(wide, monkeypatch)
    assert rows == ([872, 872, 256] if one_probe else [436, 436, 128])
    # Chunking cannot change a result: the same trials in chunks of _CHUNK rows.
    monkeypatch.setattr(sim, "_CHUNK_BYTES", 1 << 40)
    rows, whole = rows_per_chunk(wide, monkeypatch)
    assert rows == ([1024, 976] if one_probe else [1000])
    for column, want in zip(grid, whole):
        assert column is None and want is None or np.array_equal(column, want)
    for cost, results in zip(wide.costs, grid_results(grid, wide.probes_per_round)):
        for t in (0, 435, 436, 999):
            assert results[t] == scalar_reference(wide, cost, t)[0]


# Four costs far apart, so that a trial's rows end many rounds apart. dgf
# and chernoff track tau1; chernoff (K = 2 < M) and chernoff_generic on
# Exponential cells draw one round at a time, the others ahead in blocks.
FAR_APART_CASES = [
    ("dgf", dict(num_cells=5, probes_per_round=2, model=Bernoulli(0.2, 0.7), diagnostics=True)),
    ("chernoff", dict(num_cells=5, probes_per_round=2, model=Bernoulli(0.2, 0.7),
                      diagnostics=True)),
    ("dgf_l", dict(num_cells=6, probes_per_round=2, num_targets=2, model=Bernoulli(0.1, 0.4))),
    ("seq_dgf_l", dict(num_cells=4, num_targets=2, model=Bernoulli(0.1, 0.4))),
    ("seq_dgf_l", dict(num_cells=4, num_targets=2, model=Bernoulli(0.4, 0.1))),
    ("unknown_l", dict(num_cells=4, num_targets=2, true_target_count=1,
                       model=Bernoulli(0.1, 0.6))),
    ("chernoff_generic", dict(num_cells=4, num_targets=2, true_target_count=1,
                              model=Exponential(1.0, 4.0))),
    ("chernoff_generic", dict(num_cells=4, num_targets=2, true_target_count=1,
                              model=Bernoulli(0.1, 0.6))),
]


@pytest.mark.parametrize("policy, overrides", FAR_APART_CASES,
                         ids=["dgf", "chernoff", "dgf_l", "seq_dgf_l-g", "seq_dgf_l-f",
                              "unknown_l", "chernoff_generic-one-round",
                              "chernoff_generic-ahead"])
def test_rows_that_end_far_apart_match_reference(policy, overrides, monkeypatch):
    # A row that reaches its last threshold is dropped in that round: the
    # rule never steps it again, so it cannot reach, declare or be recorded
    # twice, and its trial draws nothing once none of its rows is live.
    config = ExperimentConfig(**{"probes_per_round": 1, **overrides}, policy=policy,
                              neg_log_c=(1.0, 8.0, 2.5, 5.0), trials=60, seed=31)
    expected = list(map(results_of, reference_grid(config)))
    assert not any(result.truncated for per_cost in expected for result in per_cost)
    # Each chunk row's last round: one row per (cost, trial), cost-major, for
    # a rule that reads the threshold, else one per trial that ends at the
    # largest tau of its costs.
    entry = sim.POLICIES[policy]
    if entry.reads_threshold:
        row_last = [result.tau for per_cost in expected for result in per_cost]
    else:
        row_last = [max(per_cost[t].tau for per_cost in expected)
                    for t in range(config.trials)]
    assert max(row_last) - min(result.tau for per_cost in expected for result in per_cost) > 20

    stepped = []

    def checked_rule(cfg, plan):
        rule, draws = entry.rule(cfg, plan)

        def checked(live, n, drawn):
            stepped.append((n, live.index.tolist()))
            return rule(live, n, drawn)

        return checked, draws

    keeps, keep = [], sim._LiveRows.keep

    def counted_keep(self, kept):
        keeps.append(kept.size)
        keep(self, kept)

    blocks, one_round, base_blocks = [], [], stream._base_blocks

    def recording_blocks(model, picks, live, width, rounds):
        blocks.append(sorted(set((live % config.trials).tolist())))
        return base_blocks(model, picks, live, width, rounds)

    reads, read_round = [], stream.ChunkStream.round

    def recording_round(self, n, index, at):
        reads.append((n, index.tolist()))
        return read_round(self, n, index, at)

    monkeypatch.setitem(sim.POLICIES, policy, dataclasses.replace(entry, rule=checked_rule))
    monkeypatch.setattr(sim._LiveRows, "keep", counted_keep)
    monkeypatch.setattr(stream.ChunkStream, "round", recording_round)
    monkeypatch.setattr(stream, "_base_blocks", recording_blocks)
    monkeypatch.setattr(stream, "_round_draws", recording_round_draws(one_round))
    grid = sim._run_grid(config, config.costs)
    assert grid_results(grid, config.probes_per_round) == expected

    # Round n steps exactly the rows whose last round is n or later, and
    # the rows are compacted once in each round where some row ends, but
    # the last.
    assert stepped == [(n, [r for r, end in enumerate(row_last) if end >= n])
                       for n in range(max(row_last) + 1)]
    assert len(keeps) == len(set(row_last)) - 1
    # The stream is read once per round, for exactly the rows that round steps.
    assert reads == stepped
    # The trials that draw in round n are those with a live row: whose last
    # round is n or later.
    def drawing(n):
        return sorted({r % config.trials for r, end in enumerate(row_last) if end >= n})

    if one_round:
        # Each round's policy draws and base variates, in one call over the
        # trials that draw in it.
        assert blocks == []
        assert [trials for _, trials, _, _ in one_round] == [
            drawing(n) for n in range(max(row_last) + 1)]
    else:
        assert blocks == [drawing(n) for n in range(0, max(row_last) + 1, stream._BLOCK_ROUNDS)]
    assert bool(one_round) == (policy == "chernoff"
                               or isinstance(config.model, Exponential))


@pytest.mark.parametrize("rounds", [1, 3])
@pytest.mark.parametrize("policy", ["dgf_l", "chernoff_generic"])
def test_block_bytes_cap_the_rounds_drawn_ahead(policy, rounds, monkeypatch):
    # dgf_l draws K = 3 base variates a round, chernoff_generic one uniform
    # and one base variate; a cap just short of one more round for the
    # chunk's 40 trials gives blocks of exactly ``rounds`` rounds.
    overrides = dict(BENCH_SHAPES["dgf_l" if policy == "dgf_l" else "unknown_l"])
    config = ExperimentConfig(policy=policy, neg_log_c=(8.0, 4.0), trials=40, seed=13,
                              **overrides)
    width = 3 if policy == "dgf_l" else 2
    round_bytes = 8 * config.trials * width
    blocks, base_blocks = [], stream._base_blocks

    def recording_blocks(*args):
        drawn = base_blocks(*args)
        blocks.append((args[-1], drawn.nbytes))
        return drawn

    monkeypatch.setattr(stream, "_BLOCK_BYTES", (rounds + 1) * round_bytes - 1)
    monkeypatch.setattr(stream, "_base_blocks", recording_blocks)
    grid = sim._run_grid(config, config.costs)
    assert set(blocks) == {(rounds, rounds * round_bytes)}
    assert len(blocks) > 1
    expected = list(map(results_of, reference_grid(config)))
    assert grid_results(grid, config.probes_per_round) == expected


# The ranked step rules' claims, each run on the scalar rule and on the
# engine's, as (policy, model, M, K, L, -log c, sums, action): the stop gap,
# the probe window in both regimes, K = M, where the probes are the whole
# ranking, and ties, which rank the lower cell first. -log(exp(-2.0)) is 2.0
# exactly, so an exact-gap claim's gap sits on the threshold.
# Exponential(0.5, 10): d_gf = 2.05 < d_fg/(M-1) = 4.0 at M=5, the "knock
# down the normals" side. Swapping the rates flips the comparison.
F_SIDE, G_SIDE = Exponential(0.5, 10.0), Exponential(10.0, 0.5)
RANKED_CLAIMS = {
    "dgf-stops-on-gap": ("dgf", F_SIDE, 4, 1, 1, 3.0, [4.0, 0.9, 0.0, -1.0], Stop((0,))),
    "dgf-stops-at-exact-gap": ("dgf", F_SIDE, 4, 1, 1, 2.0, [2.0, 0.0, -1.0, -1.0], Stop((0,))),
    "dgf-below-gap-probes": ("dgf", F_SIDE, 4, 1, 1, 3.0, [2.0, 0.0, -1.0, -5.0], Probe((1,))),
    "dgf-g-side-top-k": ("dgf", G_SIDE, 5, 2, 1, 5.0, [1.0, 3.0, 0.0, -1.0, 2.0], Probe((1, 4))),
    "dgf-f-side-ranks-2-to-k+1": ("dgf", F_SIDE, 5, 2, 1, 5.0, [1.0, 3.0, 0.0, -1.0, 2.0],
                                  Probe((4, 0))),
    "dgf-k-equals-m": ("dgf", F_SIDE, 3, 3, 1, 5.0, [0.5, 0.0, 1.0], Probe((2, 0, 1))),
    "dgf_l-stops-on-l-gap": ("dgf_l", G_SIDE, 5, 1, 2, 5.0, [9.0, 7.0, 1.0, 0.0, -2.0],
                             Stop((0, 1))),
    "dgf_l-stops-at-exact-gap": ("dgf_l", G_SIDE, 5, 1, 2, 2.0, [9.0, 7.0, 5.0, 0.0, -2.0],
                                 Stop((0, 1))),
    "dgf_l-g-side-small-k": ("dgf_l", G_SIDE, 5, 1, 2, 5.0, [4.0, 3.0, 1.0, 0.0, -2.0],
                             Probe((1,))),
    "dgf_l-g-side-large-k": ("dgf_l", G_SIDE, 5, 3, 2, 5.0, [4.0, 3.0, 1.0, 0.0, -2.0],
                             Probe((0, 1, 2))),
    "dgf_l-f-side-small-k": ("dgf_l", F_SIDE, 5, 1, 2, 5.0, [4.0, 3.0, 1.0, 0.0, -2.0],
                             Probe((2,))),
    "dgf_l-f-side-large-k": ("dgf_l", F_SIDE, 5, 4, 2, 5.0, [4.0, 3.0, 1.0, 0.0, -2.0],
                             Probe((1, 2, 3, 4))),
    "ties-by-index": ("dgf", F_SIDE, 4, 4, 1, 5.0, [1.0, 3.0, 1.0, -2.0], Probe((1, 0, 2, 3))),
    "all-tied": ("dgf", F_SIDE, 4, 4, 1, 5.0, [0.0, 0.0, 0.0, 0.0], Probe((0, 1, 2, 3))),
}


def one_row(policy, model, m, k, l, t, sums, recipe=()):
    """The scalar config, the engine's rule and a one-row _LiveRows holding
    the sums, for ``policy`` at the one cost exp(-t). The rule's draw recipe
    must be ``recipe``: a row of draws fed to the rule follows it."""
    config = ExperimentConfig(num_cells=m, probes_per_round=k, policy=policy, model=model,
                              neg_log_c=(t,), num_targets=l)
    (cost,) = config.costs
    entry = sim.POLICIES[policy]
    rule, draws = entry.rule(config, plan_of(config))
    assert draws == recipe
    live = sim._LiveRows(model.law(np.zeros((1, m), dtype=bool)), -math.log(cost),
                         entry.reads_threshold)
    live.S[0] = sums
    return PolicyConfig.for_model(model, m, k, cost, num_targets=l), rule, live


def assert_engine_acts(rule, live, action, drawn=None):
    # A stop is a margin at or above the threshold, the decided cells are its
    # key (cell indices or a bool mask), and the probes come in the scalar
    # rule's order. ``drawn`` is the round's policy draws, a (1, d) row.
    margin, key, probe = rule(live, 0, drawn)
    if isinstance(action, Stop):
        assert margin[0] >= live.thr
        cells = np.flatnonzero(key[0]) if key.dtype == bool else np.sort(key[0])
        assert tuple(cells.tolist()) == action.decision
    else:
        assert margin[0] < live.thr
        assert tuple(probe[0].tolist()) == action.cells


@pytest.mark.parametrize("claim", RANKED_CLAIMS.values(), ids=RANKED_CLAIMS)
def test_engine_rules_keep_the_ranked_step_claims(claim):
    # One round of the engine's rule on a one-row _LiveRows holding the sums.
    policy, model, m, k, l, t, sums, action = claim
    pcfg, rule, live = one_row(policy, model, m, k, l, t, sums)
    state = SearchState(m)
    state.s[:] = sums
    assert STEPS[policy](state, pcfg) == action
    assert_engine_acts(rule, live, action)


@pytest.mark.parametrize("model", [F_SIDE, G_SIDE], ids=["f_side", "g_side"])
@pytest.mark.parametrize("m", range(2, 8))
def test_engine_windows_match_ranked_steps_at_every_small_geometry(model, m):
    # The probe window of rates.probing_plan against the scalar rules' own
    # windows, at every L and K on both sides, with distinct sums whose
    # gaps stay below the threshold, so every rule probes.
    sums = np.random.default_rng(m).permutation(m).astype(float).tolist()
    for l in range(1, m):
        for k in range(1, m + 1):
            pcfg, rule, live = one_row("dgf_l", model, m, k, l, 50.0, sums)
            assert pcfg.multi_regime == ("f" if model is F_SIDE else "g")
            state = SearchState(m)
            state.s[:] = sums
            action = dgfl_step(state, pcfg)
            assert isinstance(action, Probe)
            assert_engine_acts(rule, live, action)
            if l == 1:
                pcfg, rule, live = one_row("dgf", model, m, k, l, 50.0, sums)
                action = dgf_step(state, pcfg)
                assert isinstance(action, Probe)
                assert_engine_acts(rule, live, action)


def test_engine_stops_in_the_round_its_margin_equals_the_threshold(monkeypatch):
    # A stand-in dgf rule whose margin is the round number: each cost's
    # trials stop in the round whose margin equals its threshold exactly.
    def rule(live, n, drawn):
        cells = np.zeros((live.rows.size, 1), dtype=np.int64)
        return np.full(live.rows.size, float(n)), cells, cells

    entry = dataclasses.replace(sim.POLICIES["dgf"], rule=lambda cfg, plan: (rule, ()))
    monkeypatch.setitem(sim.POLICIES, "dgf", entry)
    config = ExperimentConfig(num_cells=4, probes_per_round=1, policy="dgf", model=F_SIDE,
                              neg_log_c=(2.0, 3.0, 5.0), trials=3)
    assert sim._run_grid(config, config.costs).tau.tolist() == [[2] * 3, [3] * 3, [5] * 3]


# The declaring rules' claims, each run on the scalar rule and on the
# engine's, as (policy, model, M, L, -log c, sums, cells declared before the
# round, cells declared after it, action), with K = 1. The scalar rule
# returns one Declare per step; the engine's rule makes a round's
# declarations and then acts, in one call, so a claim's action is the scalar
# rule's first one after its Declares. The seq_dgf_l claims walk one search
# in each regime: the "g" regime chases the best undeclared cell and declares
# it abnormal, the "f" regime grinds down the worst and declares it normal.
BERNOULLI = Bernoulli(0.1, 0.6)
DECLARING_CLAIMS = {
    "seq_dgf_l-g-probes-argmax": ("seq_dgf_l", G_SIDE, 3, 2, 2.0, [0.0, 0.0, 0.0], (), (),
                                  Probe((0,))),
    "seq_dgf_l-g-declares-then-chases": ("seq_dgf_l", G_SIDE, 3, 2, 2.0, [2.5, 0.0, 0.0], (),
                                         (0,), Probe((1,))),
    "seq_dgf_l-g-skips-declared": ("seq_dgf_l", G_SIDE, 3, 2, 2.0, [50.0, 0.0, 0.1], (0,),
                                   (0,), Probe((2,))),
    "seq_dgf_l-g-stops-on-l-declared": ("seq_dgf_l", G_SIDE, 3, 2, 2.0, [50.0, 0.0, 2.0], (0,),
                                        (0, 2), Stop((0, 2))),
    "seq_dgf_l-f-probes-argmin": ("seq_dgf_l", F_SIDE, 3, 2, 2.0, [0.5, -0.5, 0.0], (), (),
                                  Probe((1,))),
    "seq_dgf_l-f-survivors-win": ("seq_dgf_l", F_SIDE, 3, 2, 2.0, [0.5, -2.0, 0.0], (), (1,),
                                  Stop((0, 2))),
    "unknown_l-declares-and-freezes": ("unknown_l", BERNOULLI, 3, 2, 2.0, [2.5, 0.0, 0.0], (),
                                       (0,), Probe((1,))),
    "unknown_l-unresolved-probes": ("unknown_l", BERNOULLI, 3, 2, 2.0, [2.5, -2.5, 0.5], (0,),
                                    (0,), Probe((2,))),
    "unknown_l-all-resolved-stops": ("unknown_l", BERNOULLI, 3, 2, 2.0, [2.5, -2.5, -2.1],
                                     (0,), (0,), Stop((0,))),
    "unknown_l-resolved-at-minus-threshold": ("unknown_l", BERNOULLI, 3, 2, 2.0,
                                              [2.5, -2.0, -2.5], (0,), (0,), Stop((0,))),
    "unknown_l-all-clear-stops-empty": ("unknown_l", BERNOULLI, 3, 2, 2.0, [-2.5, -3.0, -2.01],
                                        (), (), Stop(())),
    "unknown_l-simultaneous-crossings": ("unknown_l", BERNOULLI, 3, 2, 2.0, [2.1, 2.2, 0.0], (),
                                         (0, 1), Probe((2,))),
    # -log(exp(-2.0)) is 2.0 exactly, so this sum sits on the threshold.
    "unknown_l-declares-at-threshold": ("unknown_l", BERNOULLI, 3, 2, 2.0, [2.0, 0.0, 0.0], (),
                                        (0,), Probe((1,))),
}


@pytest.mark.parametrize("claim", DECLARING_CLAIMS.values(), ids=DECLARING_CLAIMS)
def test_engine_rules_keep_the_declaring_step_claims(claim):
    policy, model, m, l, t, sums, before, after, action = claim
    pcfg, rule, live = one_row(policy, model, m, 1, l, t, sums)
    # seq_dgf_l's "f" regime declares cells normal; the other rules abnormal.
    kind = "normal" if policy == "seq_dgf_l" and pcfg.multi_regime == "f" else "abnormal"
    state = SearchState(m)
    state.s[:] = sums
    state.declare(before, kind)
    scalar = STEPS[policy](state, pcfg)
    while isinstance(scalar, Declare):
        assert scalar.kind == kind
        state.declare(scalar.cells, scalar.kind)
        scalar = STEPS[policy](state, pcfg)
    assert (scalar, state.declared_abnormal | state.declared_normal) == (action, set(after))
    live.declared[0, list(before)] = True
    if policy == "unknown_l":
        # The engine holds a cell that unknown_l has declared, and so frozen,
        # at -inf; the scalar state keeps its sum.
        live.S[0, list(before)] = -np.inf
    assert_engine_acts(rule, live, action)
    assert set(np.flatnonzero(live.declared[0]).tolist()) == set(after)


class Scripted:
    """A generator for the scalar rules that hands out ``draws`` in order:
    ``integers(b)`` the next pick, which must lie below b, and ``random()``
    the next uniform."""

    def __init__(self, draws):
        self.draws = list(draws)

    def integers(self, b):
        assert 0 <= self.draws[0] < b
        return self.draws.pop(0)

    def random(self):
        return self.draws.pop(0)


def generic_round(model, m, l, sums, rng):
    """One round of chernoff_generic on per-cell sums, as ``generic_reference``
    steps it: the ML set, its margin and the cell drawn from its mixture."""
    hyps, q_cache = generic_mixtures(model, m, l)
    scores = []
    for h in hyps:
        total = 0.0
        for cell in h:
            total += sums[cell]
        scores.append(total)
    best = ml_hypothesis(scores)
    cell = chernoff_generic_step(scores, rng, q_cache)
    return hyps[best], generic_stop_margin(scores, best), cell


def each_subset_alike(others, size, skip=0):
    """A claim that the probes past the first ``skip`` form every
    ``size``-subset of ``others`` equally often over the draw rows."""
    def holds(acts):
        counts = Counter(frozenset(act.cells[skip:]) for act in acts)
        subsets = set(map(frozenset, itertools.combinations(others, size)))
        return set(counts) == subsets and len(set(counts.values())) == 1
    return holds


# The randomized step rules' claims, each run on the scalar rule and on the
# engine's, as (policy, model, M, K, L, -log c, sums, recipe, claim).
# chernoff's rule runs on every pick vector in the product of its recipe's
# bounds, so a claim over them is exact; chernoff_generic's on a sweep of
# uniforms. The scalar rule gets the same draws through ``Scripted`` and must
# act alike; ``claim`` then holds of the actions, one per draw row: a Probe
# or Stop for chernoff, and (ML set, margin, cell drawn) for chernoff_generic.
UNIFORM = (np.random.Generator.random,)
UNIFORM_SWEEP = [*np.linspace(0.0, 1.0, 41)[:-1].tolist(), 1 - 2**-53]
SPREAD = [0.0, 2.0, -1.0, 0.5, 0.3]
LEADER = [3.0, 0.0, 0.0, 0.0, 0.0]
RANDOMIZED_CLAIMS = {
    "chernoff-stops-as-dgf": ("chernoff", F_SIDE, 4, 1, 1, 5.0, [6.0, 0.5, 0.0, 0.0], (3,),
                              lambda acts: set(acts) == {Stop((0,))}),
    "chernoff-stops-at-exact-gap": ("chernoff", F_SIDE, 4, 1, 1, 5.0, [5.0, 0.0, 0.0, 0.0],
                                    (3,), lambda acts: set(acts) == {Stop((0,))}),
    "chernoff-g-side-probes-leader": (
        "chernoff", G_SIDE, 5, 2, 1, 5.0, SPREAD, (4,),
        lambda acts: all(act.cells[0] == 1 and len(set(act.cells)) == 2 for act in acts)),
    "chernoff-f-side-skips-leader": (
        "chernoff", F_SIDE, 5, 3, 1, 5.0, SPREAD, (4, 3, 2),
        lambda acts: all(1 not in act.cells and len(set(act.cells)) == 3 for act in acts)),
    "chernoff-k-equals-m": ("chernoff", F_SIDE, 4, 4, 1, 5.0, [0.0, 2.0, -1.0, 0.5], (),
                            lambda acts: acts == [Probe((1, 3, 0, 2))]),
    "chernoff-f-side-one-probe-uniform": ("chernoff", F_SIDE, 5, 1, 1, 5.0, LEADER, (4,),
                                          each_subset_alike(range(1, 5), 1)),
    "chernoff-f-side-subsets-uniform": ("chernoff", F_SIDE, 5, 2, 1, 5.0, LEADER, (4, 3),
                                        each_subset_alike(range(1, 5), 2)),
    "chernoff-g-side-subsets-uniform": ("chernoff", G_SIDE, 5, 3, 1, 5.0, LEADER, (4, 3),
                                        each_subset_alike(range(1, 5), 2, skip=1)),
    # Sets (0,) and (0, 1) tie at 2.0: the lower index, (0,), is the ML set.
    "generic-ties-take-lowest-index": ("chernoff_generic", BERNOULLI, 3, 1, 2, 5.0,
                                       [2.0, 0.0, -1.0], UNIFORM,
                                       lambda acts: {act[:2] for act in acts} == {((0,), 0.0)}),
    # (0, 1) scores 7.0 and its best rival, (0,), 5.0.
    "generic-margin-over-best-rival": ("chernoff_generic", BERNOULLI, 3, 1, 2, 5.0,
                                       [5.0, 2.0, -1.0], UNIFORM,
                                       lambda acts: {act[:2] for act in acts} == {((0, 1), 2.0)}),
    # The mixtures put no weight on a single ML set's cell, nor outside a pair.
    "generic-single-set-mixture": ("chernoff_generic", BERNOULLI, 3, 1, 2, 5.0, [1.0, -2.0, -3.0],
                                   UNIFORM, lambda acts: Counter(act[2] for act in acts) == {
                                       1: 20, 2: 21}),
    "generic-pair-mixture": ("chernoff_generic", BERNOULLI, 3, 1, 2, 5.0, [5.0, 2.0, -1.0],
                             UNIFORM, lambda acts: Counter(act[2] for act in acts) == {
                                 0: 20, 1: 21}),
}


@pytest.mark.parametrize("claim", RANDOMIZED_CLAIMS.values(), ids=RANDOMIZED_CLAIMS)
def test_engine_rules_keep_the_randomized_step_claims(claim):
    policy, model, m, k, l, t, sums, recipe, holds = claim
    rows = itertools.product(*map(range, recipe)) if policy == "chernoff" else (
        (u,) for u in UNIFORM_SWEEP)
    acts = []
    for drawn in rows:
        pcfg, rule, live = one_row(policy, model, m, k, l, t, sums, recipe)
        row = np.array([drawn], dtype=float) if drawn else None
        rng = Scripted(drawn)
        if policy == "chernoff":
            state = SearchState(m)
            state.s[:] = sums
            act = chernoff_step(state, pcfg, rng)
            assert_engine_acts(rule, live, act, row)
            if isinstance(act, Stop):
                # chernoff stops exactly where dgf does, and then draws nothing.
                _, dgf_rule, dgf_live = one_row("dgf", model, m, k, l, t, sums)
                assert_engine_acts(dgf_rule, dgf_live, act)
                assert STEPS["dgf"](state, pcfg) == act
        else:
            act = generic_round(model, m, l, sums, rng)
            margin, key, probe = rule(live, 0, row)
            assert (tuple(np.unique(key[0]).tolist()), margin[0], probe[0, 0]) == act
        # A scalar rule that acts reads every draw of the recipe.
        assert rng.draws == [] or isinstance(act, Stop)
        acts.append(act)
    assert holds(acts)
