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
probes one cell per round, its lockstep rule, whether it draws randomness
of its own, and whether it scores every candidate target set. ``POLICY_NAMES``
is its key order. Every check and dispatch reads the table instead of naming
policies.

Engine
------
Every policy runs in one lockstep engine. The trials of a chunk advance
together, one round at a time, as rows of ``(trials, cells)`` arrays, and
a policy is a vectorised rule over those rows that mirrors its scalar step
rule in ``policies`` exactly (stable-argsort rankings, first-argmax ties,
the same float operations in the same order). Each trial still draws from
its own generator in contract order; when it draws depends on the policy:

* The deterministic policies (``dgf``, ``dgf_l``, ``seq_dgf_l``,
  ``unknown_l``) draw nothing of their own, so after the truth draw a
  trial's stream is nothing but its observations' base variates, one per
  probed cell. The engine draws them ahead in blocks of rounds
  (``Generator`` array draws equal the same number of scalar draws) and
  refills a block from the same generator when it runs out. Draws past a
  trial's end are never read and nothing follows them in the stream, so
  they are unobservable.
* The randomized policies (``chernoff``, ``chernoff_generic``) draw
  between observations, so nothing can be drawn ahead. Every round each
  live trial first makes its policy draws inside the rule (``integers``
  for the subset shuffle, one uniform for the mixture), then the engine
  draws its K base variates, one scalar call each. A trial that stops
  this round makes its policy draws too; they come after its end.

Either way the results are bit-identical to running one trial at a time
through the scalar step rules, ``SearchState`` and ``update``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import compress
from typing import Callable, Sequence

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
    return _run_lockstep(cfg, cost, trial_index, trial_index + 1, trace)[0]


def _run_lockstep(
    cfg: ExperimentConfig,
    cost: float,
    lo: int,
    hi: int,
    trace: list | None = None,
) -> list[TrialResult]:
    """Trials lo..hi-1, in lockstep chunks.

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
# abnormal declaration), the round number and, for a policy that draws its
# own randomness, the live trials' generators (else None). It returns which
# trials stop, the decision mask of those that do, and every trial's probe
# set in the scalar rule's order. Each rule below mirrors its scalar rule in
# ``policies`` exactly: rankings break ties towards the lower cell index
# (stable sort, first argmax), stop tests use the same float comparisons,
# and a randomized rule makes the scalar rule's draws, in its order, from
# every live trial. For a trial that stops this round they come after its
# end, where nothing reads them.
_Rule = Callable[[np.ndarray, np.ndarray, np.ndarray, int, list | None],
                 tuple[np.ndarray, np.ndarray, np.ndarray]]


def _ranked_rule(cfg: ExperimentConfig, pcfg: PolicyConfig) -> _Rule:
    """dgf and dgf_l (dgf_step is dgfl_step with L=1): a fixed window of the ranking."""
    m, k, l, thr = cfg.num_cells, cfg.probes_per_round, cfg.num_targets, pcfg.threshold
    if pcfg.multi_regime == "g":
        first = 0 if k >= l else l - k
    else:
        first = m - k if k > m - l else l

    def rank(S, declared, last_declared, n, rngs):
        rows = np.arange(len(S))
        order = np.argsort(-S, axis=1, kind="stable")
        stop = S[rows, order[:, l - 1]] - S[rows, order[:, l]] >= thr
        decision = np.zeros((int(stop.sum()), m), dtype=bool)
        decision[np.arange(len(decision))[:, None], order[stop, :l]] = True
        return stop, decision, order[:, first:first + k]

    return rank


def _chernoff_rule(cfg: ExperimentConfig, pcfg: PolicyConfig) -> _Rule:
    """chernoff: dgf's stop test; probe everything when K = M, else the
    leader (in the "g" regime) plus a uniform subset of ranks 2..M drawn by
    partial Fisher-Yates, one ``integers`` call per drawn cell."""
    m, k, thr = cfg.num_cells, cfg.probes_per_round, pcfg.threshold
    lead = int(pcfg.single_regime == "g")
    first = 0 if k == m else 1 - lead
    bounds = [] if k == m else [m - 1 - i for i in range(k - lead)]
    cell_index = np.arange(m)

    def chernoff(S, declared, last_declared, n, rngs):
        rows = np.arange(len(S))
        order = np.argsort(-S, axis=1, kind="stable")
        stop = S[rows, order[:, 0]] - S[rows, order[:, 1]] >= thr
        decision = order[stop, :1] == cell_index
        if bounds:
            picks = np.fromiter((g.integers(0, b) for g in rngs for b in bounds), np.int64,
                                len(rngs) * len(bounds)).reshape(-1, len(bounds))
            # Shuffle ranks 2..M in place: order[:, 1:1 + i] then holds the first i picks.
            pool = order[:, 1:]
            for i in range(len(bounds)):
                j = i + picks[:, i]
                head = pool[:, i].copy()
                pool[:, i] = pool[rows, j]
                pool[rows, j] = head
        return stop, decision, order[:, first:first + k]

    return chernoff


def _sequential_rule(cfg: ExperimentConfig, pcfg: PolicyConfig) -> _Rule:
    """seq_dgf_l. The "f" regime is the "g" regime on negated sums: declare
    cells normal from the bottom up and output the survivors."""
    m, l, thr = cfg.num_cells, cfg.num_targets, pcfg.threshold
    chase_top = pcfg.multi_regime == "g"
    needed = l if chase_top else m - l

    def sequential(S, declared, last_declared, n, rngs):
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

    def unknown(S, declared, last_declared, n, rngs):
        newly = ~declared & (S >= thr)
        declared |= newly
        last_declared[newly.any(axis=1)] = n
        stop = (declared | (np.abs(S) >= thr)).all(axis=1)
        best = np.where(declared, -np.inf, S).argmax(axis=1)
        return stop, declared[stop], best[:, None]

    return unknown


def _generic_rule(cfg: ExperimentConfig, pcfg: PolicyConfig) -> _Rule:
    """chernoff_generic: score every target set of 1..L cells by adding its
    members' sums in order, stop once the ML set leads its closest rival by
    the threshold, else probe one cell drawn from the ML set's mixture."""
    members, starts, masks, cum = _generic_tables(cfg.model, cfg.num_cells, cfg.num_targets)
    thr = pcfg.threshold
    uniform = np.random.Generator.random

    def generic(S, declared, last_declared, n, rngs):
        rows = np.arange(len(S))
        scores = S[:, members[:, 0]]
        for j in range(1, len(starts)):
            scores[:, starts[j]:] += S[:, members[starts[j]:, j]]
        best = scores.argmax(axis=1)
        top = scores[rows, best]
        scores[rows, best] = -np.inf
        stop = top - scores.max(axis=1) >= thr
        u = np.fromiter(map(uniform, rngs), float, len(rngs))
        cell = (u[:, None] < cum[best]).argmax(axis=1)
        return stop, masks[best[stop]], cell[:, None]

    return generic


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
    policy = POLICIES[cfg.policy]
    track_tau1 = cfg.diagnostics and policy.targets == "one"
    true_cell = truth.argmax(axis=1)

    # Per chunk trial: outcome. Per live trial (row): running state.
    tau = np.zeros(count, dtype=np.int64)
    declared_at = np.zeros(count, dtype=np.int64)
    decided = np.zeros((count, m), dtype=bool)
    stopped = np.zeros(count, dtype=bool)
    last_break = np.zeros(count, dtype=np.int64)
    live = np.arange(count)
    S = np.zeros((count, m))
    declared = np.zeros((count, m), dtype=bool)
    last_declared = np.full(count, -1, dtype=np.int64)
    if policy.draws:
        live_rngs = rngs
    else:
        live_rngs = None
        blocks = _base_blocks(model, rngs, live, k)
        block_row = live
    n = 0
    while True:
        stop, decision, probe = rule(S, declared, last_declared, n, live_rngs)
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
            if policy.draws:
                live_rngs = list(compress(live_rngs, keep.tolist()))
            else:
                block_row = block_row[keep]
        if policy.draws:
            # K base variates per trial, after the rule's own draws.
            gens = live_rngs if k == 1 else [g for g in live_rngs for _ in range(k)]
            base = np.fromiter(map(model.base_variate, gens), float, len(gens)).reshape(-1, k)
        else:
            offset = (n % _BLOCK_ROUNDS) * k
            if offset == 0 and n:
                blocks = _base_blocks(model, rngs, live, k)
                block_row = np.arange(live.size)
            base = blocks[block_row, offset:offset + k]
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

    truncated = ~stopped
    tau_d = np.where(declared_at >= 0, declared_at, tau)
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


@dataclass(frozen=True)
class PolicyEntry:
    """One policy's facts (see "Policies" above): ``rule`` builds its
    lockstep rule from ``(cfg, pcfg)``; ``draws`` marks a policy that draws
    randomness of its own between observations; ``scores_hypotheses`` one
    that scores every candidate target set, whose count is capped."""

    targets: str
    one_probe: bool
    rule: Callable[[ExperimentConfig, PolicyConfig], _Rule]
    draws: bool = False
    scores_hypotheses: bool = False


POLICIES: dict[str, PolicyEntry] = {
    "dgf": PolicyEntry("one", False, _ranked_rule),
    "chernoff": PolicyEntry("one", False, _chernoff_rule, draws=True),
    "dgf_l": PolicyEntry("exact", False, _ranked_rule),
    "seq_dgf_l": PolicyEntry("exact", True, _sequential_rule),
    "unknown_l": PolicyEntry("up_to", True, _unknown_count_rule),
    "chernoff_generic": PolicyEntry("up_to", True, _generic_rule, draws=True,
                                    scores_hypotheses=True),
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


def run_trials(cfg: ExperimentConfig, cost: float, workers: int = 1) -> list[TrialResult]:
    """All trials for one cost, in trial-index order.

    With workers > 1 the trials are chunked across processes; per-trial
    seeding makes the output independent of the chunking, so any worker
    count yields the identical list. The pool never holds more processes
    than there are chunks or CPUs available to this process.
    """
    if workers <= 1:
        return _run_lockstep(cfg, cost, 0, cfg.trials)
    workers = min(workers, _available_cpus())
    spans = _spans(cfg.trials, workers * 4)
    out: list[TrialResult] = []
    with ProcessPoolExecutor(max_workers=min(workers, len(spans))) as pool:
        futures = [pool.submit(_run_lockstep, cfg, cost, lo, hi) for lo, hi in spans]
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
