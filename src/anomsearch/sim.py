"""Monte Carlo engine: ground truth, trial execution, aggregation, diagnostics.

Reproducibility contract
------------------------
Trial t of an experiment draws every random variate from
``numpy.random.default_rng([seed, t])``, in a fixed order:

1. ground truth (skipped entirely when ``fixed_hypothesis`` is set): one
   uniform variate scanned against the prior for target constraint
   ``one``, or a partial Fisher-Yates shuffle (one ``integers`` call per
   target) for target subsets;
2. each round, the policy's own randomness first (subset shuffle for
   ``chernoff``, one uniform variate for ``chernoff_generic``), then exactly
   one variate per observation, probed cells visited in ascending order.

Nothing else touches the stream, so a trial is bit-reproducible in
isolation and experiment results cannot depend on scheduling or on how
trials are chunked across worker processes.

Policies
--------
``POLICIES`` is the one place where each policy's facts live: its target
constraint (``one``: L = 1, one true target drawn from ``priors``, tau1
tracked under diagnostics; ``exact``: the true count is L; ``up_to``: any
true count in 1..L, measured against the unknown-count bound), whether it
probes one cell per round, and its engine. ``POLICY_NAMES`` is its key
order. Every check and dispatch reads the table instead of naming policies.

Engines
-------
The deterministic policies (``dgf``, ``dgf_l``, ``seq_dgf_l``, ``unknown_l``)
draw no randomness of their own, so after the truth draw a trial's stream
is nothing but its observations' base variates, one per probed cell. They
run in one lockstep engine: trials advance together, a chunk at a time,
as rows of ``(trials, cells)`` arrays, and each trial reads its
observations from blocks of base variates drawn ahead from its own
generator (``Generator`` array draws equal the same number of scalar
draws). A block that runs out is refilled from the same generator. Draws
past a trial's end are never read and nothing follows them in the stream,
so they are unobservable: results are bit-identical to drawing one
observation at a time. The randomized policies (``chernoff``,
``chernoff_generic``) interleave their own draws with the observations and
run one trial at a time in scalar loops. ``chernoff`` steps a
``SearchState`` with ``update`` and ``chernoff_step``, the scalar
reference path. ``_run_generic_trial`` is the one special case: it scores
hypotheses rather than cells, keeps bare per-cell sums and samples from
per-hypothesis mixtures cached once per scenario.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.stats import norm

from .models import ObservationModel
from .oracle import anomaly_hypotheses, hypothesis_action_kl, maximin_action_distribution
from .policies import (
    PolicyConfig,
    Stop,
    chernoff_generic_step,
    chernoff_step,
    generic_stop_margin,
    ml_hypothesis,
)
# The scalar rules of the lockstep policies: the engine below vectorises
# them, and sim keeps their names so layer tracing can wrap every step rule.
from .policies import dgf_step, dgfl_step, seq_dgfl_step, unknownl_step  # noqa: F401
from .state import SearchState, update

__all__ = [
    "POLICIES",
    "POLICY_NAMES",
    "PolicyEntry",
    "ExperimentConfig",
    "TrialResult",
    "AggregateMetrics",
    "DecayReport",
    "run_trial",
    "run_trials",
    "run_experiment",
    "aggregate",
    "tau1_decay_diagnostic",
]

# Trials advanced together; bounds the engine's arrays and live generators.
_CHUNK = 1024
# Rounds of base variates drawn per trial at a time.
_BLOCK_ROUNDS = 32
_Z_95 = float(norm.ppf(0.975))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    ``neg_log_c`` is the grid of -log c values (the natural axis for these
    experiments); each entry maps to an observation cost c = exp(-neg_log_c).
    ``true_target_count`` is the ground-truth number of abnormal cells,
    defaulting to ``num_targets`` (the size of ``fixed_hypothesis`` when
    that is set); it must equal ``num_targets`` unless the policy's target
    constraint is "up_to", which accepts any count up to ``num_targets``.
    ``priors`` (target constraint "one" only) weights which cell holds the
    target; None means uniform. ``fixed_hypothesis`` pins the ground truth
    to one target set instead of sampling it, for conditional error/delay
    measurements.
    """

    num_cells: int
    probes_per_round: int
    policy: str
    model: ObservationModel
    neg_log_c: tuple[float, ...]
    trials: int = 10_000
    seed: int = 271_828
    num_targets: int = 1
    true_target_count: int | None = None
    priors: tuple[float, ...] | None = None
    fixed_hypothesis: tuple[int, ...] | None = None
    max_rounds: int = 1_000_000
    diagnostics: bool = False

    def __post_init__(self) -> None:
        m, k, l = self.num_cells, self.probes_per_round, self.num_targets
        policy = POLICIES.get(self.policy)
        if policy is None:
            raise ValueError(f"unknown policy {self.policy!r}; choose one of {POLICY_NAMES}")
        if m < 2:
            raise ValueError("need at least two cells")
        if not 1 <= k <= m:
            raise ValueError(f"probes per round must lie in [1, {m}], got {k}")
        if not 1 <= l < m:
            raise ValueError(f"target count must lie in [1, {m}), got {l}")
        if policy.one_probe and k != 1:
            raise ValueError(f"policy {self.policy!r} probes one cell per round; got K={k}")
        if policy.targets == "one" and l != 1:
            raise ValueError(f"policy {self.policy!r} searches for one target; got L={l}")
        grid = tuple(float(t) for t in self.neg_log_c)
        if not grid:
            raise ValueError("neg_log_c grid must not be empty")
        for t in grid:
            if not (math.isfinite(t) and t > 0.0):
                raise ValueError(f"-log c values must be positive and finite, got {t}")
            if not 0.0 < math.exp(-t) < 1.0:
                raise ValueError(f"-log c = {t} gives a cost exp(-{t}) that rounds to "
                                 f"{math.exp(-t)}; it must lie strictly inside (0, 1)")
        object.__setattr__(self, "neg_log_c", grid)
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be positive, got {self.max_rounds}")

        fixed = self.fixed_hypothesis
        if fixed is not None:
            fixed = tuple(sorted(int(c) for c in fixed))
            if len(set(fixed)) != len(fixed) or not fixed:
                raise ValueError("fixed_hypothesis must be a non-empty set of distinct cells")
            if fixed[0] < 0 or fixed[-1] >= m:
                raise ValueError(f"fixed_hypothesis cells must lie in [0, {m})")
            object.__setattr__(self, "fixed_hypothesis", fixed)

        ell = self.true_target_count
        if ell is None:
            ell = l if fixed is None else len(fixed)
            object.__setattr__(self, "true_target_count", ell)
        if policy.targets != "up_to" and ell != l:
            raise ValueError(f"policy {self.policy!r} assumes L = {l} true targets, got {ell}")
        if not 1 <= ell <= l:
            raise ValueError(f"true target count must lie in [1, {l}], got {ell}")
        if fixed is not None and len(fixed) != ell:
            raise ValueError(f"fixed_hypothesis has {len(fixed)} cells but true_target_count is {ell}")

        if self.priors is not None:
            if policy.targets != "one":
                raise ValueError("priors apply to single-target policies only")
            priors = tuple(float(p) for p in self.priors)
            if len(priors) != m:
                raise ValueError(f"priors must have one entry per cell ({m}), got {len(priors)}")
            if any(not 0.0 < p < 1.0 for p in priors):
                raise ValueError("every prior must lie strictly inside (0, 1)")
            total = math.fsum(priors)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"priors must sum to 1, got {total}")
            object.__setattr__(self, "priors", tuple(p / total for p in priors))
        elif policy.targets == "one":
            object.__setattr__(self, "priors", (1.0 / m,) * m)

    @property
    def costs(self) -> tuple[float, ...]:
        return tuple(math.exp(-t) for t in self.neg_log_c)


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial: what was true, what was decided, and when.

    tau counts completed probing rounds at termination; tau_d is the round
    of the last abnormal-cell declaration (equal to tau for policies that
    declare nothing before stopping). tau1 is the last-passage diagnostic:
    the earliest round after which the true cell's sum LLR stayed strictly
    on top through tau. It is tracked only for single-target policies with
    diagnostics enabled, else None.
    """

    true_hypothesis: tuple[int, ...]
    decision: tuple[int, ...] | None
    correct: bool
    tau: int
    tau_d: int
    observations_taken: int
    tau1: int | None = None
    truncated: bool = False


@dataclass(frozen=True)
class AggregateMetrics:
    """Summary of one (policy, cost) batch of trials.

    bayes_risk is p_e + cost * mean_tau_d; detection and termination time
    coincide except under ``unknown_l``, so this matches the plain
    p_e + cost * mean_tau for every other policy. risk_stderr is the
    standard error of the per-trial risk sample (error indicator plus
    cost * tau_d), for confidence intervals on bayes_risk. The 95% CI is a
    normal approximation on mean_tau. r_empirical is the half-width of the
    central 95% interquantile range of tau in sigma units (2 would be
    normal-like tails); 0 when sigma is 0.
    """

    trial_count: int
    p_e: float
    mean_tau: float
    mean_tau_d: float
    bayes_risk: float
    risk_stderr: float
    sigma: float
    ci_low: float
    ci_high: float
    r_empirical: float
    truncations: int


@dataclass(frozen=True)
class DecayReport:
    """Tail fit of the last-passage survival curve log P(tau1 > n) ~ -gamma n.

    The fit window runs from the first n with survival at or below 1/2 to
    the last n with at least five surviving trials; fewer than five points
    in that window marks the report inconclusive and leaves the fit fields
    None. rms_residual is the root-mean-square deviation of the fitted line
    in log-survival units.
    """

    trials_used: int
    tail_start: int | None
    tail_stop: int | None
    tail_points: int
    gamma_hat: float | None
    rms_residual: float | None
    inconclusive: bool


def _draw_truth(cfg: ExperimentConfig, rng: np.random.Generator) -> tuple[int, ...]:
    if cfg.fixed_hypothesis is not None:
        return cfg.fixed_hypothesis
    m = cfg.num_cells
    if POLICIES[cfg.policy].targets == "one":
        u = rng.random()
        acc = 0.0
        for cell, p in enumerate(cfg.priors):
            acc += p
            if u < acc:
                return (cell,)
        return (m - 1,)
    ell = cfg.true_target_count
    pool = list(range(m))
    for i in range(ell):
        j = i + int(rng.integers(m - i))
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:ell]))


@lru_cache(maxsize=8)
def _generic_tables(model: ObservationModel, num_cells: int, max_targets: int):
    """Hypothesis list, KL table, and per-hypothesis maximin mixtures.

    Static per scenario, so the linear program runs once per hypothesis per
    process instead of once per probing step.
    """
    hyps = anomaly_hypotheses(num_cells, max_targets=max_targets)
    kl = hypothesis_action_kl(model, hyps, num_cells)
    q_cache = tuple(maximin_action_distribution(kl, i)[0] for i in range(len(hyps)))
    return hyps, kl, q_cache


def run_trial(
    cfg: ExperimentConfig,
    cost: float,
    trial_index: int,
    trace: list | None = None,
) -> TrialResult:
    """Execute one trial at observation cost ``cost``.

    Bit-reproducible from (cfg.seed, trial_index) alone; see the module
    docstring for the exact draw order. When ``trace`` is a list, one
    (probed_cells, observations) pair is appended per round. Hitting
    cfg.max_rounds truncates the trial: decision None, correct False,
    tau = max_rounds.
    """
    if not 0.0 < cost < 1.0:
        raise ValueError(f"observation cost must lie in (0, 1), got {cost}")
    policy = POLICIES[cfg.policy]
    if policy.rule is not None:
        return _run_lockstep(cfg, cost, trial_index, trial_index + 1, trace)[0]
    rng = np.random.default_rng([cfg.seed, trial_index])
    return policy.loop(cfg, cost, rng, _draw_truth(cfg, rng), trace)


def _run_chernoff_trial(
    cfg: ExperimentConfig,
    cost: float,
    rng: np.random.Generator,
    truth: tuple[int, ...],
    trace: list | None,
) -> TrialResult:
    pcfg = PolicyConfig.for_model(
        cfg.model, cfg.num_cells, cfg.probes_per_round, cost, cfg.num_targets
    )
    state = SearchState(cfg.num_cells)
    model = cfg.model
    truth_set = frozenset(truth)
    true_cell = truth[0]
    last_break = 0
    decision: tuple[int, ...] | None = None
    truncated = False

    while True:
        action = chernoff_step(state, pcfg, rng)
        if isinstance(action, Stop):
            decision = action.decision
            break
        if state.n >= cfg.max_rounds:
            truncated = True
            break
        observations = {}
        for cell in sorted(action.cells):
            observations[cell] = model.sample(cell in truth_set, rng)
        update(state, action.cells, observations, model)
        if trace is not None:
            trace.append((action.cells, observations))
        if cfg.diagnostics:
            s = state.s
            top = s[true_cell]
            for j in range(cfg.num_cells):
                if j != true_cell and s[j] >= top:
                    last_break = state.n
                    break

    # Every chernoff round probes exactly K cells.
    return TrialResult(true_hypothesis=truth, decision=decision, correct=decision == truth,
                       tau=state.n, tau_d=state.n,
                       observations_taken=state.n * cfg.probes_per_round,
                       tau1=(last_break + 1) if cfg.diagnostics else None, truncated=truncated)


def _run_lockstep(
    cfg: ExperimentConfig,
    cost: float,
    lo: int,
    hi: int,
    trace: list | None = None,
) -> list[TrialResult]:
    """Trials lo..hi-1 of a deterministic policy, in lockstep chunks.

    ``trace`` follows :func:`run_trial` and needs a single trial.
    """
    pcfg = PolicyConfig.for_model(
        cfg.model, cfg.num_cells, cfg.probes_per_round, cost, cfg.num_targets
    )
    rule = POLICIES[cfg.policy].rule(cfg, pcfg)
    out: list[TrialResult] = []
    for start in range(lo, hi, _CHUNK):
        out += _lockstep_chunk(cfg, rule, range(start, min(start + _CHUNK, hi)), trace)
    return out


# A lockstep rule takes the live trials' sums S (trials x cells), their
# declared-cell mask (updated in place, as are the rounds of their last
# abnormal declaration) and the round number. It returns which trials
# stop, the decision mask of those that do, and every trial's probe set in
# the scalar rule's order. Each rule below mirrors its scalar rule in
# ``policies`` exactly: rankings break ties towards the lower cell index
# (stable sort, first argmax), and stop tests use the same float comparisons.
_Rule = Callable[[np.ndarray, np.ndarray, np.ndarray, int],
                 tuple[np.ndarray, np.ndarray, np.ndarray]]


def _ranked_rule(cfg: ExperimentConfig, pcfg: PolicyConfig) -> _Rule:
    """dgf and dgf_l (dgf_step is dgfl_step with L=1): a fixed window of the ranking."""
    m, k, l, thr = cfg.num_cells, cfg.probes_per_round, cfg.num_targets, pcfg.threshold
    if pcfg.multi_regime == "g":
        first = 0 if k >= l else l - k
    else:
        first = m - k if k > m - l else l

    def rank(S, declared, last_declared, n):
        rows = np.arange(len(S))
        order = np.argsort(-S, axis=1, kind="stable")
        stop = S[rows, order[:, l - 1]] - S[rows, order[:, l]] >= thr
        decision = np.zeros((int(stop.sum()), m), dtype=bool)
        decision[np.arange(len(decision))[:, None], order[stop, :l]] = True
        return stop, decision, order[:, first:first + k]

    return rank


def _sequential_rule(cfg: ExperimentConfig, pcfg: PolicyConfig) -> _Rule:
    """seq_dgf_l. The "f" regime is the "g" regime on negated sums: declare
    cells normal from the bottom up and output the survivors."""
    m, l, thr = cfg.num_cells, cfg.num_targets, pcfg.threshold
    chase_top = pcfg.multi_regime == "g"
    needed = l if chase_top else m - l

    def sequential(S, declared, last_declared, n):
        rows = np.arange(len(S))
        X = S if chase_top else -S
        while True:
            best = np.where(declared, -np.inf, X).argmax(axis=1)
            hit = (declared.sum(axis=1) < needed) & (X[rows, best] >= thr)
            if not hit.any():
                break
            declared[rows[hit], best[hit]] = True
            if chase_top:
                last_declared[hit] = n
        stop = declared.sum(axis=1) >= needed
        decision = declared[stop] if chase_top else ~declared[stop]
        return stop, decision, best[:, None]

    return sequential


def _unknown_count_rule(cfg: ExperimentConfig, pcfg: PolicyConfig) -> _Rule:
    """unknown_l: declare and freeze every cell at the threshold, probe the best other."""
    thr = pcfg.threshold

    def unknown(S, declared, last_declared, n):
        newly = ~declared & (S >= thr)
        declared |= newly
        last_declared[newly.any(axis=1)] = n
        stop = (declared | (np.abs(S) >= thr)).all(axis=1)
        best = np.where(declared, -np.inf, S).argmax(axis=1)
        return stop, declared[stop], best[:, None]

    return unknown


def _lockstep_chunk(
    cfg: ExperimentConfig,
    rule: _Rule,
    trials: range,
    trace: list | None,
) -> list[TrialResult]:
    model, m, k = cfg.model, cfg.num_cells, cfg.probes_per_round
    count = len(trials)
    rngs, truths = [], []
    truth = np.zeros((count, m), dtype=bool)
    for i, t in enumerate(trials):
        rng = np.random.default_rng([cfg.seed, t])
        hyp = _draw_truth(cfg, rng)
        truth[i, list(hyp)] = True
        rngs.append(rng)
        truths.append(hyp)
    track_tau1 = cfg.diagnostics and POLICIES[cfg.policy].targets == "one"
    true_cell = truth.argmax(axis=1)

    # Per chunk trial: outcome. Per live trial (row): running state.
    tau = np.zeros(count, dtype=np.int64)
    tau_d = np.zeros(count, dtype=np.int64)
    decided = np.zeros((count, m), dtype=bool)
    truncated = np.zeros(count, dtype=bool)
    last_break = np.zeros(count, dtype=np.int64)
    live = np.arange(count)
    S = np.zeros((count, m))
    declared = np.zeros((count, m), dtype=bool)
    last_declared = np.full(count, -1, dtype=np.int64)
    blocks = _base_blocks(model, rngs, live, k)
    block_row = live
    n = 0
    while True:
        stop, decision, probe = rule(S, declared, last_declared, n)
        done = stop | (n >= cfg.max_rounds)
        if done.any():
            ended = live[done]
            tau[ended] = n
            tau_d[ended] = np.where(last_declared[done] >= 0, last_declared[done], n)
            decided[live[stop]] = decision
            truncated[ended] = ~stop[done]
            keep = ~done
            live, block_row, probe = live[keep], block_row[keep], probe[keep]
            S, declared, last_declared = S[keep], declared[keep], last_declared[keep]
            if not live.size:
                break
        offset = (n % _BLOCK_ROUNDS) * k
        if offset == 0 and n:
            blocks = _base_blocks(model, rngs, live, k)
            block_row = np.arange(live.size)
        # Observations are drawn in ascending cell order within a round.
        cells = np.sort(probe, axis=1)
        rows = np.arange(live.size)[:, None]
        y, llr = model.sample_many(truth[live[:, None], cells],
                                   blocks[block_row, offset:offset + k])
        S[rows, cells] += llr
        n += 1
        if track_tau1:
            top = S[rows[:, 0], true_cell[live]]
            last_break[live[((S >= top[:, None]) & ~truth[live]).any(axis=1)]] = n
        if trace is not None:
            trace.append((tuple(probe[0].tolist()), dict(zip(cells[0].tolist(), y[0].tolist()))))

    decisions = [None if cut else tuple(cell for cell, hit in enumerate(row) if hit)
                 for row, cut in zip(decided.tolist(), truncated.tolist())]
    return [
        TrialResult(
            true_hypothesis=hyp,
            decision=dec,
            correct=dec == hyp,
            tau=t,
            tau_d=td,
            observations_taken=t * k,
            tau1=lb + 1 if track_tau1 else None,
            truncated=cut,
        )
        for hyp, dec, t, td, lb, cut in zip(truths, decisions, tau.tolist(), tau_d.tolist(),
                                             last_break.tolist(), truncated.tolist())
    ]


def _base_blocks(model: ObservationModel, rngs: list, live: np.ndarray, k: int) -> np.ndarray:
    """The next _BLOCK_ROUNDS rounds of base variates of each live trial, one row each."""
    blocks = np.empty((live.size, _BLOCK_ROUNDS * k))
    for row, i in enumerate(live.tolist()):
        model.draw_base(rngs[i], blocks[row])
    return blocks


def _run_generic_trial(
    cfg: ExperimentConfig,
    cost: float,
    rng: np.random.Generator,
    truth: tuple[int, ...],
    trace: list | None,
) -> TrialResult:
    hyps, kl, q_cache = _generic_tables(cfg.model, cfg.num_cells, cfg.num_targets)
    threshold = -math.log(cost)
    model = cfg.model
    truth_set = frozenset(truth)
    s = [0.0] * cfg.num_cells
    scores = [0.0] * len(hyps)
    n = 0
    decision: tuple[int, ...] | None = None
    truncated = False

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
        if n >= cfg.max_rounds:
            truncated = True
            break
        cell = chernoff_generic_step(scores, kl, rng, q_cache)
        y = model.sample(cell in truth_set, rng)
        s[cell] += model.llr(y)
        n += 1
        if trace is not None:
            trace.append(((cell,), {cell: y}))

    return TrialResult(true_hypothesis=truth, decision=decision, correct=decision == truth,
                       tau=n, tau_d=n, observations_taken=n, truncated=truncated)


@dataclass(frozen=True)
class PolicyEntry:
    """One policy's facts (see "Policies" above). The engine is exactly one
    of ``rule``, which builds the lockstep rule, and ``loop``, which runs one
    trial from ``(cfg, cost, rng, truth, trace)``."""

    targets: str
    one_probe: bool
    rule: Callable[[ExperimentConfig, PolicyConfig], _Rule] | None = None
    loop: Callable[..., TrialResult] | None = None


POLICIES: dict[str, PolicyEntry] = {
    "dgf": PolicyEntry("one", False, rule=_ranked_rule),
    "chernoff": PolicyEntry("one", False, loop=_run_chernoff_trial),
    "dgf_l": PolicyEntry("exact", False, rule=_ranked_rule),
    "seq_dgf_l": PolicyEntry("exact", True, rule=_sequential_rule),
    "unknown_l": PolicyEntry("up_to", True, rule=_unknown_count_rule),
    "chernoff_generic": PolicyEntry("up_to", True, loop=_run_generic_trial),
}
POLICY_NAMES = tuple(POLICIES)


def _trial_span(cfg: ExperimentConfig, cost: float, lo: int, hi: int) -> list[TrialResult]:
    if POLICIES[cfg.policy].rule is not None:
        return _run_lockstep(cfg, cost, lo, hi)
    return [run_trial(cfg, cost, t) for t in range(lo, hi)]


def _spans(total: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, total))
    bounds = [total * i // parts for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_trials(cfg: ExperimentConfig, cost: float, workers: int = 1) -> list[TrialResult]:
    """All trials for one cost, in trial-index order.

    With workers > 1 the trials are chunked across processes; per-trial
    seeding makes the output independent of the chunking, so any worker
    count yields the identical list. The pool never holds more processes
    than there are chunks or CPUs available to this process.
    """
    if workers <= 1:
        return _trial_span(cfg, cost, 0, cfg.trials)
    workers = min(workers, _available_cpus())
    spans = _spans(cfg.trials, workers * 4)
    out: list[TrialResult] = []
    with ProcessPoolExecutor(max_workers=min(workers, len(spans))) as pool:
        futures = [pool.submit(_trial_span, cfg, cost, lo, hi) for lo, hi in spans]
        for future in futures:
            out.extend(future.result())
    return out


def aggregate(results: Sequence[TrialResult], cost: float) -> AggregateMetrics:
    """Reduce one batch of trials to AggregateMetrics; order-insensitive."""
    n = len(results)
    if n == 0:
        raise ValueError("no trial results to aggregate")
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
    half = _Z_95 * sigma / math.sqrt(n)
    if sigma > 0.0:
        q_low, q_high = np.quantile(taus, [0.025, 0.975])
        r_empirical = float(q_high - q_low) / (2.0 * sigma)
    else:
        r_empirical = 0.0
    return AggregateMetrics(
        trial_count=n,
        p_e=p_e,
        mean_tau=mean_tau,
        mean_tau_d=mean_tau_d,
        bayes_risk=p_e + cost * mean_tau_d,
        risk_stderr=risk_stderr,
        sigma=sigma,
        ci_low=mean_tau - half,
        ci_high=mean_tau + half,
        r_empirical=r_empirical,
        truncations=sum(1 for r in results if r.truncated),
    )


def run_experiment(
    cfg: ExperimentConfig,
    workers: int = 1,
    progress: Callable[[str], None] | None = None,
) -> list[tuple[float, AggregateMetrics]]:
    """Run the full neg_log_c grid; one (cost, AggregateMetrics) per point."""
    out = []
    for t in cfg.neg_log_c:
        cost = math.exp(-t)
        metrics = aggregate(run_trials(cfg, cost, workers), cost)
        out.append((cost, metrics))
        if progress is not None:
            progress(
                f"{cfg.policy} -log c={t:g}: mean_tau={metrics.mean_tau:.4g} "
                f"p_e={metrics.p_e:.3g} trials={metrics.trial_count}"
            )
    return out


def tau1_decay_diagnostic(
    cfg: ExperimentConfig,
    cost: float,
    trials: int | None = None,
    workers: int = 1,
) -> DecayReport:
    """Fit the tail decay rate of the last-passage time over fresh trials.

    Only correct, non-truncated trials contribute: tau1 measures when the
    true cell's lead became permanent, which is undefined on error paths.
    """
    if POLICIES[cfg.policy].targets != "one":
        raise ValueError("last-passage diagnostic applies to single-target policies")
    run_cfg = cfg
    if not run_cfg.diagnostics:
        run_cfg = replace(run_cfg, diagnostics=True)
    if trials is not None and trials != run_cfg.trials:
        run_cfg = replace(run_cfg, trials=trials)
    results = run_trials(run_cfg, cost, workers=workers)
    tau1s = [r.tau1 for r in results if r.correct and not r.truncated]
    used = len(tau1s)
    if used < 20:
        return DecayReport(used, None, None, 0, None, None, True)

    counts = np.bincount(np.asarray(tau1s, dtype=np.int64))
    # survivors[n] = number of trials with tau1 > n
    survivors = used - np.cumsum(counts)
    survival = survivors / used
    at_most_half = np.nonzero(survival <= 0.5)[0]
    enough_mass = np.nonzero(survivors >= 5)[0]
    if at_most_half.size == 0 or enough_mass.size == 0:
        return DecayReport(used, None, None, 0, None, None, True)
    start = int(at_most_half[0])
    stop = int(enough_mass[-1])
    ns = np.arange(start, stop + 1)
    ns = ns[survivors[ns] > 0]
    if ns.size < 5:
        return DecayReport(used, start, stop, int(ns.size), None, None, True)
    log_surv = np.log(survival[ns])
    slope, intercept = np.polyfit(ns, log_surv, 1)
    fitted = slope * ns + intercept
    rms = float(np.sqrt(np.mean((log_surv - fitted) ** 2)))
    return DecayReport(used, start, stop, int(ns.size), float(-slope), rms, False)
