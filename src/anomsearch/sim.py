"""Monte Carlo engine: ground truth, trial execution, aggregation, diagnostics.

Reproducibility contract
------------------------
Trial t of an experiment draws every random variate from
``numpy.random.default_rng([seed, t])``, in a fixed order:

1. ground truth (skipped entirely when ``fixed_hypothesis`` is set): one
   uniform variate scanned against the prior for target constraint
   ``one``, or a partial Fisher-Yates shuffle (one ``integers`` call per
   target) for target subsets;
2. each round, the policy's own draws first, then exactly one base variate
   per observation, probed cells visited in ascending order. The round's
   draws follow a recipe fixed by the config alone: K base variates,
   preceded for ``chernoff`` by one ``integers`` call per cell of its
   random subset (bounds M - 1, M - 2, ...: K calls in the "f" regime,
   K - 1 in the "g" regime, none when K = M) and for ``chernoff_generic``
   by one uniform variate. The state decides only how the draws are used.

Nothing else touches the stream, so a trial is bit-reproducible in
isolation and experiment results cannot depend on scheduling or on how
trials are chunked across worker processes. Nor does the stream depend on
the cost: trial t reads the same variates at every point of the grid, so
one generator serves every cost.

Policies
--------
``POLICIES`` is the one place where each policy's facts live: its target
constraint (``one``: L = 1, one true target drawn from ``priors``, tau1
tracked under diagnostics; ``exact``: the true count is L; ``up_to``: any
true count in 1..L, measured against the unknown-count bound), whether it
probes one cell per round, its lockstep rule and draw recipe, and whether
it scores every candidate target set. ``POLICY_NAMES`` is its key order.
Every check and dispatch reads the table instead of naming policies.

Engine
------
Every policy runs in one lockstep engine, over a whole cost grid at once.
A chunk holds one row per (trial, cost), and its rows advance together,
one round at a time, as rows of ``(rows, cells)`` arrays, each with the
threshold of its cost. A policy is a vectorised rule over those rows that
mirrors its scalar step rule in ``policies`` exactly (stable-argsort
rankings, first-argmax ties, the same float operations in the same order).
Each trial has one generator, one truth draw and one stream of variates,
and all of its rows read them; ``run_trials`` and ``run_trial`` are the
same engine on a grid of one cost. A trial draws in contract order for as
long as any of its rows is live; when it draws depends on the policy:

* A policy whose recipe has no draws of its own (``dgf``, ``dgf_l``,
  ``seq_dgf_l``, ``unknown_l``, and ``chernoff`` when it draws no subset)
  leaves a trial's stream, after the truth draw, nothing but its
  observations' base variates, one per probed cell. The engine draws them
  ahead in blocks of rounds per trial (``Generator`` array draws equal the
  same number of scalar draws) and refills a block from the same generator
  when it runs out. Draws past a trial's end are never read and nothing
  follows them in the stream, so they are unobservable.
* The randomized policies (``chernoff``, ``chernoff_generic``) draw
  between observations, so nothing can be drawn ahead. Every round each
  live trial first makes its policy draws, then its K base variates, one
  scalar call each, and all of its live rows share them. A trial whose
  rows stop this round makes its policy draws too; they come after its end.

Either way the results are bit-identical to running one trial at a time,
one cost at a time, through the scalar step rules, ``SearchState`` and
``update``. They leave the engine as columns, one ``TrialColumns`` per
cost in trial order, which ``aggregate`` reduces as they are; only
``run_trials`` and ``run_trial`` build ``TrialResult`` objects.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy.stats import norm

from .models import ObservationModel
from .oracle import anomaly_hypotheses, hypothesis_action_kl, maximin_action_distribution
from .policies import PolicyConfig
# The scalar step rules and the SearchState ledger they step: the engine
# below vectorises them and never calls them, and sim keeps their names so
# that layer tracing can wrap every step rule and state operation.
from .policies import (  # noqa: F401
    chernoff_generic_step,
    chernoff_step,
    dgf_step,
    dgfl_step,
    seq_dgfl_step,
    unknownl_step,
)
from .state import SearchState, update  # noqa: F401

__all__ = [
    "POLICIES",
    "POLICY_NAMES",
    "PolicyEntry",
    "ExperimentConfig",
    "TrialResult",
    "TrialColumns",
    "AggregateMetrics",
    "DecayReport",
    "run_trial",
    "run_trials",
    "run_experiment",
    "aggregate",
    "tau1_decay_diagnostic",
]

# (trial, cost) rows advanced together; bounds the engine's arrays and live generators.
_CHUNK = 1024
# Rounds of base variates drawn per trial at a time.
_BLOCK_ROUNDS = 32
# Most target sets a policy that scores every set may face. Its set-up
# builds an (H, H, M) KL table and solves one linear program per set,
# H = the sum over l <= L of C(M, l), so its time grows about as H^2: on a
# 2-vCPU Xeon VM, H = 385 (M = 10, L = 4) took 2.6 s and peaked at 127 MB,
# H = 637 (M = 10, L = 5) 5.7 s and 183 MB, and M = 18, L = 9 (H = 155381)
# would need a 405 GiB table.
_MAX_HYPOTHESES = 400
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
        if policy.scores_hypotheses:
            count = sum(math.comb(m, size) for size in range(1, l + 1))
            if count > _MAX_HYPOTHESES:
                raise ValueError(f"policy {self.policy!r} scores every set of 1..{l} of {m} "
                                 f"cells, {count} sets; at most {_MAX_HYPOTHESES} are supported")
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
                raise ValueError(f"priors apply to single-target policies only, "
                                 f"not to policy {self.policy!r}")
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


class TrialColumns(NamedTuple):
    """A batch of trials as columns, one entry per trial in trial order.

    ``truth`` and ``decided`` are (trials, cells) masks of the true and the
    decided target cells, ``decided`` all False for a truncated trial; the
    other fields follow :class:`TrialResult`, ``tau1`` None if untracked.
    """

    truth: np.ndarray
    decided: np.ndarray
    correct: np.ndarray
    tau: np.ndarray
    tau_d: np.ndarray
    truncated: np.ndarray
    tau1: np.ndarray | None = None


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
    """Target sets as members and masks, and cumulative maximin mixtures.

    Static per scenario, so the linear program runs once per hypothesis per
    process instead of once per probing step. ``members[i, j]`` is the j-th
    cell of hypothesis i; hypotheses come ordered by size, so those with
    more than j members are the suffix from ``starts[j]``. ``cum[i]`` is the
    running sum of hypothesis i's mixture, summed in action order as
    ``chernoff_generic_step`` sums it, with the last entry raised to
    infinity because that step returns the last action whatever the sum.
    """
    hyps = anomaly_hypotheses(num_cells, max_targets=max_targets)
    kl = hypothesis_action_kl(model, hyps, num_cells)
    members = np.zeros((len(hyps), max_targets), dtype=np.int64)
    masks = np.zeros((len(hyps), num_cells), dtype=bool)
    for i, h in enumerate(hyps):
        members[i, :len(h)] = h
        masks[i, list(h)] = True
    starts = [sum(1 for h in hyps if len(h) <= j) for j in range(max_targets)]
    cum = np.array([np.cumsum(maximin_action_distribution(kl, i)[0]) for i in range(len(hyps))])
    cum[:, -1] = np.inf
    return members, starts, masks, cum


def run_trial(
    cfg: ExperimentConfig,
    cost: float,
    trial_index: int,
    trace: list | None = None,
) -> TrialResult:
    """Execute one trial at observation cost ``cost``.

    Bit-reproducible from (cfg.seed, trial_index) alone; see the module
    docstring for the exact draw order. When ``trace`` is a list, one
    (probed_cells, observations) pair is appended per round, the cells in
    the order the policy's step rule lists them. Hitting cfg.max_rounds
    truncates the trial: decision None, correct False, tau = max_rounds.
    """
    chunk, = _run_lockstep(cfg, (cost,), trial_index, trial_index + 1, trace)
    return _trial_results(chunk, cfg.probes_per_round)[0]


def _trial_results(trials: TrialColumns, k: int) -> list[TrialResult]:
    """One TrialResult per row of ``trials``, run with ``k`` probes per round."""
    def cells(mask):
        return tuple(cell for cell, hit in enumerate(mask) if hit)

    tau1s = [None] * len(trials.tau) if trials.tau1 is None else trials.tau1.tolist()
    return [TrialResult(cells(hyp), None if cut else cells(dec), ok, t, td, t * k, t1, cut)
            for hyp, dec, ok, t, td, cut, t1 in zip(*(col.tolist() for col in trials[:6]), tau1s)]


def _run_lockstep(
    cfg: ExperimentConfig,
    costs: Sequence[float],
    lo: int,
    hi: int,
    trace: list | None = None,
) -> list[TrialColumns]:
    """Trials lo..hi-1 at every cost in ``costs``, one TrialColumns per lockstep chunk.

    A chunk holds one row per (trial, cost), trial-major, and at most
    _CHUNK rows unless one trial has more costs. ``trace`` follows
    :func:`run_trial` and needs a single trial at a single cost.
    """
    pcfgs = [PolicyConfig.for_model(cfg.model, cfg.num_cells, cfg.probes_per_round, cost,
                                    cfg.num_targets) for cost in costs]
    # The regimes do not depend on the cost; only the threshold does.
    rule, draw = POLICIES[cfg.policy].rule(cfg, pcfgs[0])
    thresholds = [pcfg.threshold for pcfg in pcfgs]
    step = max(1, _CHUNK // len(costs))
    return [_lockstep_chunk(cfg, rule, draw, thresholds, range(start, min(start + step, hi)),
                            trace) for start in range(lo, hi, step)]


# A lockstep rule takes the live rows' sums S (rows x cells), their
# thresholds (one float, or one per row), their declared-cell mask (updated
# in place, as are the rounds of their last abnormal declaration), the round
# number and the round's policy draws (one row each, else None). It returns
# which rows stop, the decision mask of those that do, and every row's probe
# set in the scalar rule's order. Each rule below mirrors its scalar rule in
# ``policies`` exactly: rankings break ties towards the lower cell index
# (stable sort, first argmax), stop tests use the same float comparisons,
# and a randomized rule consumes the scalar rule's draws in its order.
_Rule = Callable[[np.ndarray, float | np.ndarray, np.ndarray, np.ndarray, int, np.ndarray | None],
                 tuple[np.ndarray, np.ndarray, np.ndarray]]
# A policy's draw recipe: given the live trials' generators, it makes each
# trial's policy draws for one round (the same calls every round, fixed by
# the config) and returns them as one row per trial. None when the policy
# draws nothing of its own.
_Draw = Callable[[list], np.ndarray]


def _ranked_rule(cfg: ExperimentConfig, pcfg: PolicyConfig) -> tuple[_Rule, None]:
    """dgf and dgf_l (dgf_step is dgfl_step with L=1): a fixed window of the ranking."""
    m, k, l = cfg.num_cells, cfg.probes_per_round, cfg.num_targets
    if pcfg.multi_regime == "g":
        first = 0 if k >= l else l - k
    else:
        first = m - k if k > m - l else l

    def rank(S, thr, declared, last_declared, n, drawn):
        rows = np.arange(len(S))
        order = np.argsort(-S, axis=1, kind="stable")
        stop = S[rows, order[:, l - 1]] - S[rows, order[:, l]] >= thr
        decision = np.zeros((int(stop.sum()), m), dtype=bool)
        decision[np.arange(len(decision))[:, None], order[stop, :l]] = True
        return stop, decision, order[:, first:first + k]

    return rank, None


def _chernoff_rule(cfg: ExperimentConfig, pcfg: PolicyConfig) -> tuple[_Rule, _Draw | None]:
    """chernoff: dgf's stop test; probe everything when K = M, else the
    leader (in the "g" regime) plus a uniform subset of ranks 2..M drawn by
    partial Fisher-Yates, one ``integers`` call per drawn cell."""
    m, k = cfg.num_cells, cfg.probes_per_round
    lead = int(pcfg.single_regime == "g")
    first = 0 if k == m else 1 - lead
    bounds = [] if k == m else [m - 1 - i for i in range(k - lead)]
    cell_index = np.arange(m)

    def draw(rngs):
        return np.fromiter((g.integers(0, b) for g in rngs for b in bounds), np.int64,
                           len(rngs) * len(bounds)).reshape(-1, len(bounds))

    def chernoff(S, thr, declared, last_declared, n, picks):
        rows = np.arange(len(S))
        order = np.argsort(-S, axis=1, kind="stable")
        stop = S[rows, order[:, 0]] - S[rows, order[:, 1]] >= thr
        decision = order[stop, :1] == cell_index
        if bounds:
            # Shuffle ranks 2..M in place: order[:, 1:1 + i] then holds the first i picks.
            pool = order[:, 1:]
            for i in range(len(bounds)):
                j = i + picks[:, i]
                head = pool[:, i].copy()
                pool[:, i] = pool[rows, j]
                pool[rows, j] = head
        return stop, decision, order[:, first:first + k]

    return chernoff, draw if bounds else None


def _sequential_rule(cfg: ExperimentConfig, pcfg: PolicyConfig) -> tuple[_Rule, None]:
    """seq_dgf_l. The "f" regime is the "g" regime on negated sums: declare
    cells normal from the bottom up and output the survivors."""
    m, l = cfg.num_cells, cfg.num_targets
    chase_top = pcfg.multi_regime == "g"
    needed = l if chase_top else m - l

    def sequential(S, thr, declared, last_declared, n, drawn):
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

    return sequential, None


def _unknown_count_rule(cfg: ExperimentConfig, pcfg: PolicyConfig) -> tuple[_Rule, None]:
    """unknown_l: declare and freeze every cell at the threshold, probe the best other."""

    def unknown(S, thr, declared, last_declared, n, drawn):
        if isinstance(thr, np.ndarray):
            thr = thr[:, None]
        newly = ~declared & (S >= thr)
        declared |= newly
        last_declared[newly.any(axis=1)] = n
        stop = (declared | (np.abs(S) >= thr)).all(axis=1)
        best = np.where(declared, -np.inf, S).argmax(axis=1)
        return stop, declared[stop], best[:, None]

    return unknown, None


def _generic_rule(cfg: ExperimentConfig, pcfg: PolicyConfig) -> tuple[_Rule, _Draw]:
    """chernoff_generic: score every target set of 1..L cells by adding its
    members' sums in order, stop once the ML set leads its closest rival by
    the threshold, else probe one cell drawn from the ML set's mixture with
    one uniform variate."""
    members, starts, masks, cum = _generic_tables(cfg.model, cfg.num_cells, cfg.num_targets)
    uniform = np.random.Generator.random

    def draw(rngs):
        return np.fromiter(map(uniform, rngs), float, len(rngs))

    def generic(S, thr, declared, last_declared, n, u):
        rows = np.arange(len(S))
        scores = S[:, members[:, 0]]
        for j in range(1, len(starts)):
            scores[:, starts[j]:] += S[:, members[starts[j]:, j]]
        best = scores.argmax(axis=1)
        top = scores[rows, best]
        scores[rows, best] = -np.inf
        stop = top - scores.max(axis=1) >= thr
        cell = (u[:, None] < cum[best]).argmax(axis=1)
        return stop, masks[best[stop]], cell[:, None]

    return generic, draw


def _lockstep_chunk(
    cfg: ExperimentConfig,
    rule: _Rule,
    draw: _Draw | None,
    thresholds: list[float],
    trials: range,
    trace: list | None,
) -> TrialColumns:
    """The chunk's rows, trial-major: row r is trial r // width at cost r % width."""
    model, m, k = cfg.model, cfg.num_cells, cfg.probes_per_round
    width = len(thresholds)
    rngs = [np.random.default_rng([cfg.seed, t]) for t in trials]
    truth = np.zeros((len(trials), m), dtype=bool)
    for i, rng in enumerate(rngs):
        truth[i, list(_draw_truth(cfg, rng))] = True
    if width == 1:
        thr = thresholds[0]
    else:
        truth = np.repeat(truth, width, axis=0)
        thr = np.tile(thresholds, len(trials))
    track_tau1 = cfg.diagnostics and POLICIES[cfg.policy].targets == "one"
    true_cell = truth.argmax(axis=1)

    # Per chunk row: outcome. Per live row: running state.
    count = len(truth)
    tau = np.zeros(count, dtype=np.int64)
    declared_at = np.zeros(count, dtype=np.int64)
    decided = np.zeros((count, m), dtype=bool)
    stopped = np.zeros(count, dtype=bool)
    last_break = np.zeros(count, dtype=np.int64)
    live = np.arange(count)
    S = np.zeros((count, m))
    declared = np.zeros((count, m), dtype=bool)
    last_declared = np.full(count, -1, dtype=np.int64)
    # The trials that own live rows, and each live row's index among them:
    # a trial's rows share its generator, its base variates and its draws.
    owners, owner_row = _owners(live, width)
    if draw is None:
        blocks = _base_blocks(model, rngs, owners, k)
    else:
        live_rngs = rngs
    drawn = None
    n = 0
    while True:
        if draw is not None:
            drawn = draw(live_rngs)
            if width > 1:
                drawn = drawn[owner_row]
        stop, decision, probe = rule(S, thr, declared, last_declared, n, drawn)
        done = stop if n < cfg.max_rounds else np.ones_like(stop)
        if done.any():
            ended = live[done]
            tau[ended] = n
            declared_at[ended] = last_declared[done]
            finished = live[stop]
            decided[finished] = decision
            stopped[finished] = True
            keep = ~done
            live, probe = live[keep], probe[keep]
            S, declared, last_declared = S[keep], declared[keep], last_declared[keep]
            if not live.size:
                break
            if width > 1:
                thr = thr[keep]
            if draw is None:
                owner_row = owner_row[keep]
            else:
                # A trial whose rows have all ended draws no more.
                owners, owner_row = _owners(live, width)
                live_rngs = [rngs[i] for i in owners.tolist()]
        if draw is None:
            offset = (n % _BLOCK_ROUNDS) * k
            if offset == 0 and n:
                owners, owner_row = _owners(live, width)
                blocks = _base_blocks(model, rngs, owners, k)
            base = blocks[owner_row, offset:offset + k]
        else:
            # K base variates per trial, after its policy draws.
            gens = live_rngs if k == 1 else [g for g in live_rngs for _ in range(k)]
            base = np.fromiter(map(model.base_variate, gens), float, len(gens)).reshape(-1, k)
            if width > 1:
                base = base[owner_row]
        # Observations are drawn in ascending cell order within a round.
        cells = probe if k == 1 else np.sort(probe, axis=1)
        rows = np.arange(live.size)[:, None]
        y, llr = model.sample_many(truth[live[:, None], cells], base)
        S[rows, cells] += llr
        n += 1
        if track_tau1:
            top = S[rows[:, 0], true_cell[live]]
            last_break[live[((S >= top[:, None]) & ~truth[live]).any(axis=1)]] = n
        if trace is not None:
            trace.append((tuple(probe[0].tolist()), dict(zip(cells[0].tolist(), y[0].tolist()))))

    return TrialColumns(truth, decided, stopped & (decided == truth).all(axis=1), tau,
                        np.where(declared_at >= 0, declared_at, tau), ~stopped,
                        last_break + 1 if track_tau1 else None)


def _owners(live: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The chunk trials owning the live rows, in order, and each row's index among them."""
    if width == 1:
        return live, np.arange(live.size)
    trial = live // width
    first = np.ones(trial.size, dtype=bool)
    np.not_equal(trial[1:], trial[:-1], out=first[1:])
    return trial[first], np.cumsum(first) - 1


def _base_blocks(model: ObservationModel, rngs: list, owners: np.ndarray, k: int) -> np.ndarray:
    """The next _BLOCK_ROUNDS rounds of base variates of each owner trial, one row each."""
    blocks = np.empty((owners.size, _BLOCK_ROUNDS * k))
    for row, i in enumerate(owners.tolist()):
        model.draw_base(rngs[i], blocks[row])
    return blocks


@dataclass(frozen=True)
class PolicyEntry:
    """One policy's facts (see "Policies" above): ``rule`` builds its
    lockstep rule and its draw recipe from ``(cfg, pcfg)``;
    ``scores_hypotheses`` marks a policy that scores every candidate target
    set, whose count is capped."""

    targets: str
    one_probe: bool
    rule: Callable[[ExperimentConfig, PolicyConfig], tuple[_Rule, _Draw | None]]
    scores_hypotheses: bool = False


POLICIES: dict[str, PolicyEntry] = {
    "dgf": PolicyEntry("one", False, _ranked_rule),
    "chernoff": PolicyEntry("one", False, _chernoff_rule),
    "dgf_l": PolicyEntry("exact", False, _ranked_rule),
    "seq_dgf_l": PolicyEntry("exact", True, _sequential_rule),
    "unknown_l": PolicyEntry("up_to", True, _unknown_count_rule),
    "chernoff_generic": PolicyEntry("up_to", True, _generic_rule, scores_hypotheses=True),
}
POLICY_NAMES = tuple(POLICIES)


def _spans(total: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, total))
    bounds = [total * i // parts for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_grid(cfg: ExperimentConfig, costs: Sequence[float],
              workers: int = 1) -> list[TrialColumns]:
    """All trials at every cost in ``costs``; one TrialColumns per cost, in trial order.

    With workers > 1 one process pool runs spans of trials, each span at
    every cost; per-trial seeding makes the output independent of the
    spans, so any worker count yields identical columns. The pool never
    holds more processes than there are spans or CPUs available to this
    process.
    """
    if workers <= 1:
        chunks = _run_lockstep(cfg, costs, 0, cfg.trials)
    else:
        workers = min(workers, _available_cpus())
        spans = _spans(cfg.trials, workers * 4)
        with ProcessPoolExecutor(max_workers=min(workers, len(spans))) as pool:
            futures = [pool.submit(_run_lockstep, cfg, costs, lo, hi) for lo, hi in spans]
            chunks = [chunk for future in futures for chunk in future.result()]
    # Chunks and their rows come in trial order, each trial's rows in cost order. Each
    # cost gets a copy of its rows: a view would keep the whole grid's rows alive.
    rows = [None if cols[0] is None else np.concatenate(cols) for cols in zip(*chunks)]
    return [TrialColumns(*(None if col is None else col[j::len(costs)].copy() for col in rows))
            for j in range(len(costs))]


def run_trials(cfg: ExperimentConfig, cost: float, workers: int = 1) -> list[TrialResult]:
    """All trials for one cost, in trial-index order; any worker count
    yields the identical list (see :func:`_run_grid`)."""
    return _trial_results(_run_grid(cfg, (cost,), workers)[0], cfg.probes_per_round)


def aggregate(trials: TrialColumns, cost: float) -> AggregateMetrics:
    """Reduce one batch of trials to AggregateMetrics.

    The reductions run over contiguous float copies of the columns in trial
    order; that order fixes every bit of the result.
    """
    n = len(trials.tau)
    if n == 0:
        raise ValueError("no trial results to aggregate")
    taus = trials.tau.astype(float)
    tau_ds = trials.tau_d.astype(float)
    errors = np.where(trials.correct, 0.0, 1.0)
    p_e = float(errors.mean())
    mean_tau = float(taus.mean())
    mean_tau_d = float(tau_ds.mean())
    risk_samples = errors + cost * tau_ds
    sigma = float(taus.std(ddof=1)) if n >= 2 else 0.0
    risk_stderr = float(risk_samples.std(ddof=1)) / math.sqrt(n) if n >= 2 else 0.0
    half = _Z_95 * sigma / math.sqrt(n)
    r_empirical = 0.0
    if sigma > 0.0:
        q_low, q_high = np.quantile(taus, [0.025, 0.975])
        r_empirical = float(q_high - q_low) / (2.0 * sigma)
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
        truncations=int(trials.truncated.sum()),
    )


def run_experiment(
    cfg: ExperimentConfig,
    workers: int = 1,
    progress: Callable[[str], None] | None = None,
) -> list[tuple[float, AggregateMetrics]]:
    """Run the full neg_log_c grid in one pass; one (cost, AggregateMetrics) per point."""
    return [(cost, metrics) for cost, metrics, _ in _points(cfg, workers, progress)]


def _points(cfg: ExperimentConfig, workers: int, progress: Callable[[str], None] | None
            ) -> Iterator[tuple[float, AggregateMetrics, TrialColumns]]:
    """:func:`run_experiment`'s points in grid order, each with the trials it reduces."""
    for t, cost, trials in zip(cfg.neg_log_c, cfg.costs, _run_grid(cfg, cfg.costs, workers)):
        metrics = aggregate(trials, cost)
        if progress is not None:
            progress(f"{cfg.policy} -log c={t:g}: mean_tau={metrics.mean_tau:.4g} "
                     f"p_e={metrics.p_e:.3g} trials={metrics.trial_count}")
        yield cost, metrics, trials


def tau1_decay_diagnostic(cfg: ExperimentConfig, cost: float, trials: int | None = None,
                          workers: int = 1) -> DecayReport:
    """Fit the tail decay rate of the last-passage time over fresh trials.

    Only correct, non-truncated trials contribute: tau1 measures when the
    true cell's lead became permanent, which is undefined on error paths.
    """
    if POLICIES[cfg.policy].targets != "one":
        raise ValueError("last-passage diagnostic applies to single-target policies")
    run_cfg = replace(cfg, diagnostics=True, trials=cfg.trials if trials is None else trials)
    return _fit_tau1_decay(_run_grid(run_cfg, (cost,), workers)[0])


def _fit_tau1_decay(trials: TrialColumns) -> DecayReport:
    """The tail fit of :func:`tau1_decay_diagnostic` over trials run with diagnostics on."""
    tau1s = trials.tau1[trials.correct]  # a correct trial is never truncated
    used = tau1s.size
    if used < 20:
        return DecayReport(used, None, None, 0, None, None, True)

    counts = np.bincount(tau1s)
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
