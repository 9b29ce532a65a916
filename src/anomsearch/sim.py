"""Monte Carlo engine: policies, trial execution, aggregation, diagnostics.

Every random draw, and the reproducibility contract that fixes their
order (trial t reads ``numpy.random.default_rng([seed, t])``), belongs to
``stream``: the engine reads each chunk's draws through one
``stream.ChunkStream``.

Policies
--------
``POLICIES`` is the one place where each policy's facts live: its target
constraint (``one``: L = 1, one true target drawn from ``priors``, tau1
tracked under diagnostics; ``exact``: the true count is L; ``up_to``: any
true count in 1..L, measured against the unknown-count bound), whether it
probes one cell per round, its lockstep rule and draw recipe, whether that
rule reads the threshold, and whether it scores every candidate target
set. ``POLICY_NAMES`` is its key order.
Every check and dispatch reads the table instead of naming policies.
``_benchmark``, next to the table, is the one function that reads its
target constraint and set scoring to choose what a policy's runs are
measured against: the summary's rate entry, the risk floor as a function
of the cost, and the rounds to stop per unit of -log c. Where that
estimate is over ``max_rounds`` at a grid point, ``_over_budget`` says so
in one sentence: the command line's resolver refuses the config with it,
and ``run_experiment``, ``run_trials`` and ``tau1_decay_diagnostic`` run it
but warn with it, each at the costs it runs (``_warn_over_budget``).

Engine
------
Every policy runs in one lockstep engine, over a whole cost grid at once.
A chunk's rows advance together, one round at a time, as rows of
``(rows, cells)`` arrays. A policy is a vectorised rule over those rows that
mirrors its scalar step rule in ``policies`` exactly (stable-argsort
rankings, first-argmax ties, the same float operations in the same order).
It returns each row's margin, the number its stop test compares with the
threshold, a decision key naming the cells it would decide, and its probes.
``dgf``, ``dgf_l`` and ``chernoff`` share one rule, ``_ranked_rule``: one
margin and key, and a window of the ranking to probe, which ``chernoff``
fills with a random subset of ranks 2..M.

The cost enters a policy only through its threshold -log c, and a trial
reads the same variates at every cost. So a rule that never reads the
threshold follows one sample path per trial, whatever the cost:
``dgf``, ``dgf_l``, ``chernoff`` and ``chernoff_generic`` get one row per
trial that carries every cost of the grid. It stops at each cost in the
first round its margin reaches that cost's threshold, and runs until its
margin reaches the largest. ``seq_dgf_l`` and ``unknown_l`` declare cells
at the threshold, and a declared cell is frozen, so they get one row per
(cost, trial), each with its cost's threshold. A row is recorded, with its
key, only in a round where it first reaches a threshold; each cost's tau,
decision and tau1 are read off that record after the loop, and a cost
that a row never reached is truncated at the last round. Only rounds
where some row ends compact the live rows' state (``_LiveRows``). Each
round reads and writes it, and ``stream`` the trials' base-variate
blocks, through flat indices, not 2-D fancy indexing: a round costs
mostly its couple of dozen small NumPy calls, which
``tools/round_cost.py`` counts.

When a chunk starts, the model maps its truth mask to each cell's law
(``model.law``: a rate, mean or success probability, or the truth bit
itself), and the live rows carry that law in place of the truth. Each
round gathers its probes' laws and computes only their LLRs
(``model.llrs``); only a traced trial's round builds its observations.
The live rows keep declared cells only for a rule that declares them, and
tau1 reads each round's key and margin (see ``_ranked_rule``). A chunk
holds at most ``_CHUNK`` rows, and fewer where M + K is large: as many as
``_CHUNK_BYTES`` allows at 8 bytes per cell and per probe, but never fewer
than one trial's rows.

A chunk reads its randomness through its ``ChunkStream`` in two steps:
the truths when it starts, and in one call each round (``ChunkStream.round``)
the policy draws and base variates of every live row. Every live row is
stepped and updated; then one ``_LiveRows.keep`` drops the rows that ended.
How a round is drawn (blocks ahead, or one round at a time) is ``stream``'s
business. ``run_trials`` and ``run_trial`` are the same engine on a grid of one cost.

The results are bit-identical to running one trial at a time, one cost at
a time, through the scalar step rules, ``SearchState`` and ``update``,
whatever the worker count: ``_run_grid``'s process pool runs spans of
whole trials at every cost. Only a run with more than one worker starts
that pool, and the first such run imports it, so a one-worker run loads
none of ``multiprocessing``, and no run loads the scalar step rules (see
``_ON_FIRST_READ``). The spans leave the engine as one grid, a
``TrialColumns`` whose columns hold one row per cost and one column per
trial, which ``aggregate`` reduces row by row along the contiguous trial
axis. NumPy sums pairwise along that axis only, so a row reduces exactly
as a grid of that row alone. Only ``run_trials`` and ``run_trial`` build
``TrialResult`` objects, and ``anomsearch --diagnostics`` writes each
policy's per-trial CSV and tail fit from its grid's last row while the
grid is alive, so each trial runs once per policy; both decode the masks
with ``_cells``.
"""

from __future__ import annotations

import importlib
import math
import os
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .models import ObservationModel, as_floats, check_cost, check_geometry, is_int
from .oracle import anomaly_hypotheses, anomaly_maximin
from .rates import probing_plan, rate_multi, unknownl_lower_bound
from .stream import ChunkStream, _Draw
# The maximin LP, its KL table and the SearchState ledger: the engine never
# calls them, and sim keeps them for layer tracing, like _ON_FIRST_READ.
from .oracle import hypothesis_action_kl, maximin_action_distribution  # noqa: F401
from .state import SearchState, update  # noqa: F401

__all__ = [
    "POLICY_NAMES",
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

# Most rows a chunk advances together: one per trial, or one per (cost,
# trial) for a rule that reads the threshold. Bounds the engine's arrays and
# live generators. A grid has at most this many points, so a chunk of whole
# trials fits.
_CHUNK = 1024
# Most bytes a chunk's rows may take at 8 bytes per cell and per probe, the
# size of one (rows, M) and one (rows, K) float array: rows with M + K above
# 512 make chunks of fewer rows, never fewer than one trial's.
_CHUNK_BYTES = 1 << 22
# Most target sets a policy that scores every set may face: each round it
# scores (rows x H) sets, H = the sum over l <= L of C(M, l). On a 2-vCPU
# Xeon VM a trial-round took 7.4 us at H = 385 (M = 10, L = 4) and 29 us at
# H = 1585 (M = 12, L = 5), and M = 18, L = 9 would score 1.3 GB per round.
_MAX_HYPOTHESES = 400
# Most cells a run may have. A chunk's rows shrink as M + K grows
# (_CHUNK_BYTES), but each trial's outcome holds (costs, M) masks of its true
# and decided cells: on a 2-vCPU Xeon VM, 1024 dgf trials on M = 10 000 cells
# and five costs peaked at 241 MB with K = 1 and 276 MB with K = M, most of it
# those masks. M = 2^31 would need a 17 GB priors tuple before the first trial.
_MAX_CELLS = 10_000
# Most bytes of trial outcomes a policy's run may keep: 2M + 18 per (cost,
# trial) pair (``TrialColumns``' truth and decided masks, int64 tau and
# tau_d, bool correct and truncated), 8 more with tau1. A run holds one
# policy's grid at a time, and ``_run_grid`` copies it once while it joins
# chunks, so a run at the bound peaks near 2 GiB, a quarter of an 8 GB
# machine; fig2 at 10^8 trials would build 14 GB.
_MAX_OUTCOME_BYTES = 1 << 30
# The fields that hold integers: each one's name on the command line, and its
# least value where ``check_geometry`` does not bound it.
_INTEGERS = {"num_cells": ("M", None), "probes_per_round": ("K", None), "num_targets": ("L", None),
             "trials": ("trials", 1), "seed": ("seed", 0), "max_rounds": ("max_rounds", 1)}
_Z_95 = 1.959963984540054  # float(scipy.stats.norm.ppf(0.975))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    ``neg_log_c`` is the grid of -log c values (the natural axis for these
    experiments); each entry maps to an observation cost c = exp(-neg_log_c),
    which must be a normal float below 1: a subnormal cost keeps too few
    bits to tell nearby grid points apart, so -log c is at most about 708.4.
    ``true_target_count`` is the ground-truth number of abnormal cells,
    defaulting to ``num_targets`` (the size of ``fixed_hypothesis`` when
    that is set); it must equal ``num_targets`` unless the policy's target
    constraint is "up_to", which accepts any count up to ``num_targets``.
    ``priors`` (target constraint "one" only) weights which cell holds the
    target; None means uniform. ``fixed_hypothesis`` pins the ground truth
    to one target set instead of sampling it, for conditional error/delay
    measurements.

    Every field's type but the model's is checked first, by the command
    line's rule and in its words, the counts named M, K and L as there: the
    integer fields (``fixed_hypothesis``'s cells, in a list or tuple) take
    Python or NumPy integers, never bools, and hold them as Python ints;
    ``neg_log_c`` and ``priors`` take what ``models.as_floats`` does, and
    hold floats.
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
        # The number rule first, under the command line's names for the fields.
        for name, (key, least) in _INTEGERS.items():
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if least is not None and value < least:
                raise ValueError(f"{key} must be {'positive' if least else 'non-negative'}, "
                                 f"got {value}")
            object.__setattr__(self, name, int(value))
        fixed, ell = self.fixed_hypothesis, self.true_target_count
        if not (fixed is None or isinstance(fixed, (list, tuple)) and all(map(is_int, fixed))):
            raise ValueError(f"fixed_hypothesis must be null or a list of cell indices, "
                             f"got {fixed!r}")
        if not (ell is None or is_int(ell)):
            raise ValueError(f"true_target_count must be null or an integer, got {ell!r}")
        if not isinstance(self.diagnostics, bool):
            raise ValueError(f"diagnostics must be true or false, got {self.diagnostics!r}")
        grid = as_floats("neg_log_c", self.neg_log_c, many=True)
        priors = None if self.priors is None else as_floats("priors", self.priors, many=True)
        m, k, l = self.num_cells, self.probes_per_round, self.num_targets
        policy = POLICIES.get(self.policy) if isinstance(self.policy, str) else None
        if policy is None:
            raise ValueError(f"unknown policy {self.policy!r}; choose one of {POLICY_NAMES}")
        check_geometry(m, k, l)
        if m > _MAX_CELLS:
            raise ValueError(f"M = {m} cells; at most {_MAX_CELLS} are supported")
        if policy.one_probe and k != 1:
            raise ValueError(f"policy {self.policy!r} probes one cell per round; got K={k}")
        if policy.targets == "one" and l != 1:
            raise ValueError(f"policy {self.policy!r} searches for one target; got L={l}")
        if policy.scores_hypotheses:
            count = sum(math.comb(m, size) for size in range(1, l + 1))
            if count > _MAX_HYPOTHESES:
                raise ValueError(f"policy {self.policy!r} scores every set of 1..{l} of {m} "
                                 f"cells, {count} sets; at most {_MAX_HYPOTHESES} are supported")
        if not grid:
            raise ValueError("neg_log_c grid must not be empty")
        if len(grid) > _CHUNK:
            raise ValueError(f"neg_log_c grid has {len(grid)} points; at most {_CHUNK} are supported")
        for t in grid:
            try:
                # exp(-t) overflows, to the float inf, for t below about -709.78.
                check_cost(math.inf if t < -709.78 else math.exp(-t))
            except ValueError as exc:
                raise ValueError(f"-log c = {t}: {exc}") from None
        object.__setattr__(self, "neg_log_c", grid)
        # Each (cost, trial) pair keeps more than a byte, so this count is over
        # the outcome bound below, whose GiB figure would overflow a float.
        if self.trials > _MAX_OUTCOME_BYTES:
            raise ValueError(f"trials must be at most {_MAX_OUTCOME_BYTES}, got {self.trials}")
        size = len(grid) * self.trials * (2 * m + 18 + 8 * _tracks_tau1(self))
        if size > _MAX_OUTCOME_BYTES:
            raise ValueError(f"policy {self.policy!r}: {self.trials} trials at {len(grid)} costs "
                             f"on M = {m} cells would keep {size / 2**30:.3g} GiB of trial "
                             f"outcomes, more than {_MAX_OUTCOME_BYTES / 2**30:g} GiB; use fewer "
                             f"trials, a shorter -log c grid or fewer cells")

        if fixed is not None:
            fixed = tuple(sorted(int(c) for c in fixed))
            if len(set(fixed)) != len(fixed) or not fixed:
                raise ValueError("fixed_hypothesis must be a non-empty set of distinct cells")
            if fixed[0] < 0 or fixed[-1] >= m:
                raise ValueError(f"fixed_hypothesis cells must lie in [0, {m})")
            object.__setattr__(self, "fixed_hypothesis", fixed)

        if ell is None:
            ell = l if fixed is None else len(fixed)
        object.__setattr__(self, "true_target_count", int(ell))
        if policy.targets != "up_to" and ell != l:
            raise ValueError(f"policy {self.policy!r} assumes L = {l} true targets, got {ell}")
        if not 1 <= ell <= l:
            raise ValueError(f"true target count must lie in [1, {l}], got {ell}")
        if fixed is not None and len(fixed) != ell:
            raise ValueError(f"fixed_hypothesis has {len(fixed)} cells but true_target_count is {ell}")

        if priors is not None:
            if policy.targets != "one":
                raise ValueError(f"priors apply to single-target policies only, "
                                 f"not to policy {self.policy!r}")
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


def _tracks_tau1(cfg: ExperimentConfig) -> bool:
    """Whether ``cfg``'s trials record tau1: single-target policies with diagnostics on."""
    return cfg.diagnostics and POLICIES[cfg.policy].targets == "one"


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
    """A grid of trials as columns: each a C-contiguous (costs, trials) array,
    one row per cost of the grid and one entry per trial in trial order.

    ``truth`` and ``decided`` are (costs, trials, cells) masks of the true
    and the decided target cells, ``decided`` all False for a truncated
    trial; the other fields follow :class:`TrialResult`, ``tau1`` None if
    untracked. A batch at one cost is a grid of one row. ``ExperimentConfig``
    bounds a grid's bytes by ``_MAX_OUTCOME_BYTES``, and :func:`_cells`
    decodes the masks.
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


@lru_cache(maxsize=8)
def _generic_tables(model: ObservationModel, num_cells: int, max_targets: int):
    """Target sets as members, and cumulative maximin mixtures.

    Static per scenario, so built once per process. ``members[i, j]`` is the
    j-th cell of hypothesis i, padded with its first cell, so a row of
    ``members`` names exactly its cells; hypotheses come ordered by size, so
    those with more than j members are the suffix from ``starts[j]``. ``cum[i]`` is the
    running sum of hypothesis i's mixture (``anomaly_maximin``: a on each
    member, b on each other cell), summed in cell order as
    ``chernoff_generic_step`` sums it, with the last entry raised to
    infinity because that step returns the last action whatever the sum.
    """
    hyps = anomaly_hypotheses(num_cells, max_targets=max_targets)
    members = np.zeros((len(hyps), max_targets), dtype=np.int64)
    masks = np.zeros((len(hyps), num_cells), dtype=bool)
    for i, h in enumerate(hyps):
        members[i] = h + h[:1] * (max_targets - len(h))
        masks[i, list(h)] = True
    starts = [sum(1 for h in hyps if len(h) <= j) for j in range(max_targets)]
    d_gf, d_fg = model.kl_divergences()
    a, b, _ = np.array([anomaly_maximin(d_gf, d_fg, num_cells, max_targets, len(h))
                        for h in hyps]).T
    cum = np.cumsum(np.where(masks, a[:, None], b[:, None]), axis=1)
    cum[:, -1] = np.inf
    return members, starts, cum


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
    Unlike the other runs it never warns of the round budget: it replays one
    trial, and a truncated trial is worth replaying.
    """
    if not is_int(trial_index) or trial_index < 0:
        raise ValueError(f"trial_index must be a non-negative integer, got {trial_index!r}")
    chunk, = _run_lockstep(cfg, (cost,), trial_index, trial_index + 1, trace)
    return _trial_results(_row(chunk, 0), cfg.probes_per_round)[0]


def _row(grid: TrialColumns, j: int) -> TrialColumns:
    """The trials at the grid's j-th cost, as one-dimensional columns (views)."""
    return TrialColumns(*(None if col is None else col[j] for col in grid))


def _cells(masks: np.ndarray) -> list[tuple[int, ...]]:
    """The cells set in each row of a (trials, M) mask, as ascending tuples."""
    # Flat indices run row-major, so row r's cells are the next masks[r].sum() of them.
    cells, ends = (np.flatnonzero(masks) % masks.shape[1]).tolist(), masks.sum(1).cumsum().tolist()
    return [tuple(cells[start:end]) for start, end in zip([0, *ends], ends)]


def _trial_results(trials: TrialColumns, k: int) -> list[TrialResult]:
    """One TrialResult per trial of a grid row ``trials``, run with ``k`` probes per round."""
    tau1s = [None] * len(trials.tau) if trials.tau1 is None else trials.tau1.tolist()
    return [TrialResult(hyp, None if cut else dec, ok, t, td, t * k, t1, cut)
            for hyp, dec, ok, t, td, cut, t1 in zip(*map(_cells, trials[:2]),
                                                    *(col.tolist() for col in trials[2:6]), tau1s)]


def _run_lockstep(
    cfg: ExperimentConfig,
    costs: Sequence[float],
    lo: int,
    hi: int,
    trace: list | None = None,
) -> list[TrialColumns]:
    """Trials lo..hi-1 at every cost in ``costs``, one grid per lockstep chunk.

    A chunk holds at most _CHUNK rows (see :func:`_lockstep_chunk`), and at
    most as many as _CHUNK_BYTES allows for M + K, unless one trial has more
    rows. ``trace`` follows :func:`run_trial` and needs a single trial at a
    single cost.
    """
    policy = POLICIES[cfg.policy]
    for cost in costs:
        check_cost(cost)
    thresholds = [-math.log(cost) for cost in costs]
    # The plan does not depend on the cost; only the threshold does.
    rule, draws = policy.rule(cfg, probing_plan(*cfg.model.kl_divergences(), cfg.num_cells,
                                                cfg.probes_per_round, cfg.num_targets))
    rows = min(_CHUNK, _CHUNK_BYTES // (8 * (cfg.num_cells + cfg.probes_per_round)))
    step = max(1, rows // len(costs) if policy.reads_threshold else rows)
    return [_lockstep_chunk(cfg, rule, draws, thresholds, range(start, min(start + step, hi)),
                            trace) for start in range(lo, hi, step)]


class _LiveRows:
    """A chunk's live rows, compacted as rows end. ``S`` stays C-contiguous,
    so adding into ``S.ravel()`` writes through. ``law`` holds each cell's
    law (``model.law`` of the truth mask), which a round gathers for its
    probes and tau1 reads for the key; ``declared`` is kept only for a rule
    that declares cells, else it is None.
    ``last_declared`` is per chunk row, not per live row. ``thr`` is each
    live row's next threshold to reach, a float while every row has the
    same one. ``index`` holds each live row's chunk row, by which the
    chunk's ``stream.ChunkStream`` draws for it, and ``at`` where it reads
    its blocks of draws (``ChunkStream.places``), if any."""

    __slots__ = ("index", "rows", "offsets", "S", "law", "declared", "thr", "last_declared", "at")

    def __init__(self, law: np.ndarray, thr: float | np.ndarray, declares: bool,
                 at: np.ndarray | None = None) -> None:
        count, m = law.shape
        self.index = self.rows = np.arange(count)
        self.offsets = self.rows[:, None] * m
        self.S = np.zeros((count, m))
        self.law = law
        self.declared = np.zeros((count, m), dtype=bool) if declares else None
        self.thr = thr
        self.last_declared = np.full(count, -1, dtype=np.int64)
        self.at = at

    def keep(self, kept: np.ndarray) -> None:
        """Keep only the live rows at positions ``kept``, in order."""
        self.index = self.index[kept]
        self.rows, self.offsets = self.rows[:kept.size], self.offsets[:kept.size]
        self.S = self.S.take(kept, axis=0)
        self.law = self.law.take(kept, axis=0)
        if self.declared is not None:
            self.declared = self.declared.take(kept, axis=0)
        if isinstance(self.thr, np.ndarray):
            self.thr = self.thr[kept]
        if self.at is not None:
            self.at = self.at.take(kept, axis=0)


# ``PolicyEntry.rule`` builds a lockstep rule once per grid, from the config
# and its plan (``rates.probing_plan``), as neither depends on the cost.
# The rule takes the live rows (``_LiveRows``), the round number and
# the round's policy draws (one row each, as floats, picks too; else None). It
# updates their declared cells and ``last_declared`` in place and returns
# every row's margin, its decision key and its probe set in the scalar rule's
# order. The margin is the number the scalar stop test compares with the
# threshold: a row stops at a threshold once its margin reaches it. The key
# names the cells a row would decide now, as a bool mask or a row of cell
# indices; the engine copies the keys of rows that reach a threshold. Only
# ``seq_dgf_l`` and ``unknown_l`` read ``live.thr``, to declare cells.
# Each rule mirrors its scalar rules in ``policies`` exactly (``_ranked_rule``
# serves dgf, dgf_l and chernoff): ties rank the lower cell first (stable
# sort, first argmax), margins use the same float operations, and a
# randomized rule consumes the scalar rule's draws in its order.
_Rule = Callable[[_LiveRows, int, np.ndarray | None], tuple[np.ndarray, np.ndarray, np.ndarray]]
_Plan = tuple[str, int, float]


def _ranked_rule(cfg: ExperimentConfig, plan: _Plan,
                 shuffle: bool = False) -> tuple[_Rule, _Draw]:
    """dgf, dgf_l (dgf_step is dgfl_step with L=1) and, with ``shuffle``,
    chernoff: the margin is the L-th ranked cell's lead over the next, the
    key the top L cells, and the probes a fixed window of the ranking. With
    ``shuffle`` and K < M, ranks 2..M are first shuffled by partial
    Fisher-Yates, one ``integers`` call per cell that reaches the window, so
    the window holds the leader (in the "g" regime) plus a uniform subset of
    the others. At L = 1 the key is the top cell and the margin its lead over
    the runner-up (rank 1 stays in place), so the true cell is strictly on top
    exactly when it is the key and the margin is positive, as tau1 reads.

    A rule that shuffles builds one table per grid: each row's flat index
    of its rank 2, which a round slices to its live rows. It is 1-D, since
    the pick count reaches M - 1. Like every rule that does not read the
    threshold, chernoff runs one row per trial, and a chunk holds at most
    ``_CHUNK`` such rows (:func:`_run_lockstep`), so ``_CHUNK`` rows size it."""
    m, k, l, first = cfg.num_cells, cfg.probes_per_round, cfg.num_targets, plan[1]
    bounds = [m - 1 - i for i in range(first + k - 1)] if shuffle and k < m else []
    if bounds:
        rank2 = np.arange(_CHUNK) * m + 1

    def rank(live, n, picks):
        order = (-live.S).argsort(kind="stable")
        pair = live.S.ravel()[order[:, l - 1:l + 1] + live.offsets]
        if bounds:
            # Shuffle ranks 2..M in place: order[:, 1:1 + i] then holds the
            # first i picks. Rank 1, chernoff's decision, stays in place. The
            # picks come as floats, exact below 2^32.
            flat, start, picks = order.ravel(), rank2[:len(order)], picks.astype(np.int64)
            for i in range(len(bounds)):
                at = start + i if i else start
                to = at + picks[:, i]
                flat[at], flat[to] = flat[to], flat[at]
        return pair[:, 0] - pair[:, 1], order[:, :l], order[:, first:first + k]

    return rank, tuple(bounds)


def _sequential_rule(cfg: ExperimentConfig, plan: _Plan) -> tuple[_Rule, _Draw]:
    """seq_dgf_l. The "f" regime is the "g" regime on negated sums: declare
    cells normal from the bottom up and output the survivors. The margin is
    +inf once the needed cells are declared, else -inf."""
    m, l = cfg.num_cells, cfg.num_targets
    chase_top = plan[0] == "g"
    needed = l if chase_top else m - l
    # The margin of each declared count; no row declares more than needed.
    margins = np.append(np.full(needed, -np.inf), np.inf)

    def sequential(live, n, drawn):
        declared, rows = live.declared, live.rows
        X = live.S if chase_top else -live.S
        count = declared.sum(axis=1)
        while True:
            best = np.where(declared, -np.inf, X).argmax(axis=1)
            hit = (count < needed) & (X.ravel()[best + live.offsets[:, 0]] >= live.thr)
            if not np.count_nonzero(hit):
                break
            declared[rows[hit], best[hit]] = True
            count += hit
            if chase_top:
                live.last_declared[live.index[hit]] = n
        return margins.take(count), declared if chase_top else ~declared, best[:, None]

    return sequential, ()


def _unknown_count_rule(cfg: ExperimentConfig, plan: _Plan) -> tuple[_Rule, _Draw]:
    """unknown_l: declare and freeze every cell at the threshold, probe the best other."""

    def unknown(live, n, drawn):
        S, declared, thr = live.S, live.declared, live.thr
        if isinstance(thr, np.ndarray):
            thr = thr[:, None]
        # A declared cell is frozen and its sum never read again, so it is
        # held at -inf: the rule neither declares nor probes it twice.
        newly = S >= thr
        if np.count_nonzero(newly):
            declared |= newly
            S[newly] = -np.inf
            live.last_declared[live.index[newly.nonzero()[0]]] = n
        # Every cell at or above the threshold is declared by now, so a row
        # completes its |S| >= thr test once its largest undeclared sum is
        # at or below -thr: its margin is minus that sum (+inf if none is left).
        best = S.argmax(axis=1)
        return -S.ravel()[best + live.offsets[:, 0]], declared, best[:, None]

    return unknown, ()


def _generic_rule(cfg: ExperimentConfig, plan: _Plan) -> tuple[_Rule, _Draw]:
    """chernoff_generic: score every target set of 1..L cells by adding its
    members' sums in order; the margin is the ML set's lead over its closest
    rival, the key the ML set's members, and the probe one cell drawn from
    the ML set's mixture with one uniform variate.

    The rule builds its tables once per grid, so a round does only the work
    of its live rows: each set's first member, each set's j-th member from
    the first set that has one (``starts[j]``), each as one contiguous
    array, and each row's flat index of its first score, which a round
    slices to its live rows. The rule does not read the threshold, so it
    runs one row per trial, and a chunk holds at most ``_CHUNK`` such rows
    (:func:`_run_lockstep`): ``_CHUNK`` rows size that last table."""
    members, starts, cum = _generic_tables(cfg.model, cfg.num_cells, cfg.num_targets)
    columns = members.T.copy()
    heads, tails = columns[0], [(starts[j], columns[j, starts[j]:]) for j in range(1, len(starts))]
    shifts = np.arange(_CHUNK) * len(members)

    def generic(live, n, u):
        S = live.S
        scores = S.take(heads, axis=1)
        for start, cells in tails:
            scores[:, start:] += S.take(cells, axis=1)
        best = scores.argmax(axis=1)
        flat, shift = scores.ravel(), shifts[:len(S)]
        at = best + shift
        top = flat[at]
        flat[at] = -np.inf
        # The runner-up: the first argmax once the ML set's score is gone.
        rival = flat[scores.argmax(axis=1) + shift]
        cell = (u < cum.take(best, axis=0)).argmax(axis=1)
        return top - rival, members.take(best, axis=0), cell[:, None]

    return generic, (np.random.Generator.random,)


def _lockstep_chunk(
    cfg: ExperimentConfig,
    rule: _Rule,
    draws: _Draw,
    thresholds: list[float],
    trials: range,
    trace: list | None,
) -> TrialColumns:
    """The chunk's trials as a grid of (costs, trials) columns, run one row
    per trial or one per (cost, trial) and read off the record of the rounds
    where rows first reach thresholds (see "Engine" above)."""
    model, m, k = cfg.model, cfg.num_cells, cfg.probes_per_round
    width, n_trials = len(thresholds), len(trials)
    policy = POLICIES[cfg.policy]
    per_cost = policy.reads_threshold or width == 1
    count = n_trials * width if per_cost else n_trials
    chunk = ChunkStream(cfg, trials, draws)
    truth = chunk.truth
    track_tau1 = _tracks_tau1(cfg)
    grid_truth = np.tile(truth, (width, 1)) if width > 1 else truth
    # A row reaches ``levels`` thresholds in turn.
    if per_cost:
        # One row per (cost, trial), cost-major, each with its cost's threshold.
        levels, row_law = 1, model.law(grid_truth)
        thr = np.repeat(thresholds, n_trials) if width > 1 else thresholds[0]
    else:
        # One row per trial, climbing the thresholds in ascending order; past
        # the top, its next threshold is infinity. ``lane`` holds where each
        # (cost, trial), cost-major, sits among the levels, as trial * levels + level.
        levels, row_law = width, model.law(truth)
        ranks = np.argsort(thresholds, kind="stable")
        ladder = np.asarray(thresholds)[ranks]
        above = np.append(ladder, np.inf)
        lane = (np.arange(n_trials) * width + np.argsort(ranks)[:, None]).ravel()
        thr = np.full(n_trials, ladder[0])

    # The record: for each round where some rows first reach thresholds, the
    # chunk rows, their keys, the round, and, on a ladder, the levels reached.
    hits, keys, rounds, sizes, reached, breaks = [], [], [], [], [], []
    last_break = np.zeros(count, dtype=np.int64)
    true_law = model.law(np.True_) if track_tau1 else None
    live = _LiveRows(row_law, thr, policy.reads_threshold, chunk.places(count))
    n = 0
    while True:
        # Only trials that have a live row draw.
        drawn, base = chunk.round(n, live.index, live.at)
        margin, key, probe = rule(live, n, drawn)
        if track_tau1:
            # The true cell is strictly on top after n rounds (``_ranked_rule``).
            on_top = (live.law.ravel()[key[:, 0] + live.offsets[:, 0]] == true_law) & (margin > 0)
            last_break[live.index[~on_top]] = n
        reach = margin >= live.thr
        hit = reach.nonzero()[0]
        if hit.size:
            done, found = reach, live.index[hit]
            hits.append(found)
            keys.append(key.take(hit, axis=0))
            rounds.append(n)
            sizes.append(hit.size)
            if levels > 1:
                # A margin that reaches a threshold is not NaN, so it counts
                # the thresholds at or below it.
                level = ladder.searchsorted(margin[hit], side="right")
                reached.append(level)
                live.thr[hit] = above[level]
                done = margin >= ladder[-1]
            if track_tau1:
                breaks.append(last_break[found])
            kept = (~done).nonzero()[0]
            if not kept.size or n >= cfg.max_rounds:
                break
        elif n >= cfg.max_rounds:
            break
        # Observations are drawn in ascending cell order within a round.
        flat = probe + live.offsets
        if k > 1:
            flat.sort()
        law = live.law.ravel()[flat]
        live.S.ravel()[flat] += model.llrs(law, base)
        n += 1
        if trace is not None:
            y = model.observations(law, base)
            # The traced trial is row 0, whose flat indices are its cells.
            trace.append((tuple(probe[0].tolist()), dict(zip(flat[0].tolist(), y[0].tolist()))))
        # The rows that ended were stepped and updated with the rest; drop them.
        if hit.size and kept.size < done.size:
            live.keep(kept)

    # Each (cost, trial)'s record, ``records`` for one never reached.
    records = sum(sizes)
    got = np.full(count * levels, records)
    if records:
        at = np.concatenate(hits) * levels
        if levels > 1:
            at += np.concatenate(reached) - 1
        got[at] = np.arange(records)
    row = slice(None)
    if levels > 1:
        # A level below one that a row reached in the same round shares its record.
        got = np.minimum.accumulate(got.reshape(count, levels)[:, ::-1], axis=1)
        got, row = got[:, ::-1].ravel()[lane], lane // levels
    stopped = got < records
    decided = _decisions(keys, m).take(got, axis=0)
    tau = np.repeat([*rounds, n], [*sizes, 1])[got]
    declared_at = live.last_declared[row]
    tau1 = None
    if track_tau1:
        tau1 = np.where(stopped, np.concatenate([*breaks, [0]])[got], last_break[row]) + 1
    columns = (grid_truth, decided, stopped & (decided == grid_truth).all(axis=1), tau,
               np.where(declared_at >= 0, declared_at, tau), ~stopped, tau1)
    return TrialColumns(*(None if col is None else col.reshape(width, n_trials, *col.shape[1:])
                          for col in columns))


def _decisions(keys: list[np.ndarray], m: int) -> np.ndarray:
    """One decision mask per recorded key, in record order, then an all-False
    row for costs never reached. A key is a bool mask or a row of cell indices."""
    if keys and keys[0].dtype == bool:
        return np.concatenate([*keys, np.zeros((1, m), dtype=bool)])
    cells = np.concatenate(keys) if keys else np.zeros((0, 1), dtype=np.int64)
    masks = np.zeros((len(cells) + 1, m), dtype=bool)
    masks[np.arange(len(cells))[:, None], cells] = True
    return masks


@dataclass(frozen=True)
class PolicyEntry:
    """One policy's facts (see "Policies" above): ``rule`` builds its
    lockstep rule and its draw recipe from ``(cfg, plan)``, the config
    and its ``rates.probing_plan``;
    ``reads_threshold`` marks a rule that declares cells at the threshold,
    so each of its rows keeps one cost; ``scores_hypotheses`` marks a policy
    that scores every candidate target set, whose count is capped."""

    targets: str
    one_probe: bool
    rule: Callable[[ExperimentConfig, _Plan], tuple[_Rule, _Draw]]
    reads_threshold: bool = False
    scores_hypotheses: bool = False


POLICIES: dict[str, PolicyEntry] = {
    "dgf": PolicyEntry("one", False, _ranked_rule),
    "chernoff": PolicyEntry("one", False, partial(_ranked_rule, shuffle=True)),
    "dgf_l": PolicyEntry("exact", False, _ranked_rule),
    "seq_dgf_l": PolicyEntry("exact", True, _sequential_rule, reads_threshold=True),
    "unknown_l": PolicyEntry("up_to", True, _unknown_count_rule, reads_threshold=True),
    "chernoff_generic": PolicyEntry("up_to", True, _generic_rule, scores_hypotheses=True),
}
POLICY_NAMES = tuple(POLICIES)


class _Benchmark(NamedTuple):
    """What a policy's runs are measured against: ``rates``, its entry in the
    summary's ``rates`` block; ``floor``, its risk floor as a function of the
    cost; ``per_unit``, its first-order rounds to stop per unit of -log c."""

    rates: dict
    floor: Callable[[float], float]
    per_unit: float


def _benchmark(cfg: ExperimentConfig) -> _Benchmark:
    """The benchmark of ``cfg``'s policy; the one function that chooses it.

    Target constraint ``up_to`` is measured against -ell c log c / D(g||f)
    for the true count ell; every other against -c log c / I* of
    ``rate_multi``, and stops in about (-log c) / I* rounds. Under ``up_to``
    stopping also clears the M - ell normal cells: the policy that scores
    every target set probes from the maximin mixture and takes 1 / v rounds
    per unit, v the game's value at ell (``anomaly_maximin``), and the other
    ell / D(g||f) + (M - ell) / D(f||g).
    """
    model = cfg.model
    if POLICIES[cfg.policy].targets == "up_to":
        m, ell = cfg.num_cells, cfg.true_target_count
        d_gf, d_fg = model.kl_divergences()
        per_unit = (1.0 / anomaly_maximin(d_gf, d_fg, m, cfg.num_targets, ell)[2]
                    if POLICIES[cfg.policy].scores_hypotheses else ell / d_gf + (m - ell) / d_fg)
        return _Benchmark(dict(d_gf=d_gf, d_fg=d_fg, bound="unknown_count", true_target_count=ell),
                          lambda cost: unknownl_lower_bound(cost, ell, model), per_unit)
    report = rate_multi(model, cfg.num_cells, cfg.probes_per_round, cfg.num_targets)
    # The report's fields in their order, d_gf, d_fg, i_star and regime, then the bound.
    return _Benchmark({**vars(report), "bound": "rate"}, report.lower_bound_at, 1.0 / report.i_star)


def _over_budget(cfg: ExperimentConfig, per_unit: float,
                 grid: Sequence[float] | None = None) -> list[str | None]:
    """Per point -log c of ``grid``, by default ``cfg``'s, a sentence saying
    that a trial there needs more rounds than ``cfg.max_rounds``, by the
    estimate ``per_unit`` of :func:`_benchmark`; None where it needs no more."""
    return [f"policy {cfg.policy!r}: at -log c = {t:g} a trial needs about {t * per_unit:.3g} "
            f"rounds, more than the budget of {cfg.max_rounds}"
            if t * per_unit > cfg.max_rounds else None for t in grid or cfg.neg_log_c]


def _warn_over_budget(cfg: ExperimentConfig, cost: float | None = None) -> None:
    """One ``RuntimeWarning``, at the caller of the public function that calls
    this, per point of ``cfg``'s grid, or at ``cost`` alone if given, where
    :func:`_over_budget` finds a trial over the round budget."""
    if cost is not None:
        check_cost(cost)  # before its log
    grid = None if cost is None else (-math.log(cost),)
    for sentence in filter(None, _over_budget(cfg, _benchmark(cfg).per_unit, grid)):
        warnings.warn(sentence, RuntimeWarning, stacklevel=3)


def _spans(total: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, total))
    bounds = [total * i // parts for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Names that sim imports on first read and never binds (PEP 562): the
# process pool, which only a multi-worker run needs, and the scalar step
# rules, which layer tracing wraps, so a run loads neither multiprocessing
# nor anomsearch.policies. A value set on the module in their place (a
# test's recording pool, the tracer's wrappers) is what sim reads, and
# deleting it leaves the module as it was. SearchState and update stay bound
# above: perfbench's test_install_and_restore_leave_every_attribute_as_found
# reads vars(sim)["update"].
_ON_FIRST_READ = {
    "ProcessPoolExecutor": "concurrent.futures",
    **dict.fromkeys(("chernoff_generic_step", "chernoff_step", "dgf_step", "dgfl_step",
                     "seq_dgfl_step", "unknownl_step"), ".policies"),
}


def __getattr__(name: str) -> Any:
    """A name of ``_ON_FIRST_READ``, imported from its module (PEP 562)."""
    if name not in _ON_FIRST_READ:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_ON_FIRST_READ[name], __package__), name)


def _run_grid(cfg: ExperimentConfig, costs: Sequence[float], workers: int = 1) -> TrialColumns:
    """All trials at every cost in ``costs``, as one grid: row j holds the
    trials at ``costs[j]``, in trial order.

    With workers > 1 one process pool runs spans of trials, each span at
    every cost; per-trial seeding makes the output independent of the
    spans, so any worker count yields identical columns. The pool never
    holds more processes than there are spans or CPUs available to this
    process. The pool's class is ``sim.ProcessPoolExecutor``, which the
    first multi-worker run imports.
    """
    if workers <= 1:
        chunks = _run_lockstep(cfg, costs, 0, cfg.trials)
    else:
        workers = min(workers, _available_cpus())
        spans = _spans(cfg.trials, workers * 4)
        pool_class = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
        with pool_class(max_workers=min(workers, len(spans))) as pool:
            futures = [pool.submit(_run_lockstep, cfg, costs, lo, hi) for lo, hi in spans]
            chunks = [chunk for future in futures for chunk in future.result()]
    # Chunks come in trial order, and each one's columns are C-contiguous,
    # so a lone chunk's columns and the joined columns are too.
    if len(chunks) == 1:
        return chunks[0]
    return TrialColumns(*(None if cols[0] is None else np.concatenate(cols, axis=1)
                          for cols in zip(*chunks)))


def run_trials(cfg: ExperimentConfig, cost: float, workers: int = 1) -> list[TrialResult]:
    """All trials for one cost, in trial-index order; any worker count
    yields the identical list (see :func:`_run_grid`). Warns as
    :func:`run_experiment` does, at ``cost``."""
    _warn_over_budget(cfg, cost)
    return _trial_results(_row(_run_grid(cfg, (cost,), workers), 0), cfg.probes_per_round)


def aggregate(grid: TrialColumns, costs: Sequence[float]) -> list[AggregateMetrics]:
    """Reduce each row of a grid of trials, run at ``costs``, one cost per row,
    to AggregateMetrics.

    The reductions run along the trial axis of C-contiguous float copies
    of the columns, in trial order: that order fixes every bit of the
    result, so a row gives the same metrics as a grid of that row alone.
    Means are the ufunc reduction that ``np.mean`` runs, bit for bit, and
    sample standard deviations are NumPy's own ``std(axis=1, ddof=1)``.
    """
    if len(costs) != len(grid.tau):
        raise ValueError(f"need one cost per grid row, got {len(costs)} for {len(grid.tau)} rows")
    n = grid.tau.shape[1]
    if n == 0:
        raise ValueError("no trial results to aggregate")
    taus = grid.tau.astype(float)
    tau_ds = grid.tau_d.astype(float)
    errors = np.where(grid.correct, 0.0, 1.0)
    p_e, mean_tau, mean_tau_d = (np.add.reduce(x, axis=1) / n for x in (errors, taus, tau_ds))
    costs = np.array(costs, dtype=float)
    risk_samples = errors + costs[:, None] * tau_ds
    if n >= 2:
        sigma, spread = taus.std(axis=1, ddof=1), risk_samples.std(axis=1, ddof=1)
    else:
        sigma = spread = np.zeros(costs.size)
    half = _Z_95 * sigma / math.sqrt(n)
    r_empirical = np.zeros(costs.size)
    if sigma.any():
        q_low, q_high = _quantiles(taus, (0.025, 0.975))
        np.divide(q_high - q_low, 2.0 * sigma, out=r_empirical, where=sigma > 0.0)
    stats = dict(p_e=p_e, mean_tau=mean_tau, mean_tau_d=mean_tau_d,
                 bayes_risk=p_e + costs * mean_tau_d, risk_stderr=spread / math.sqrt(n),
                 sigma=sigma, ci_low=mean_tau - half, ci_high=mean_tau + half,
                 r_empirical=r_empirical, truncations=grid.truncated.sum(axis=1))
    return [AggregateMetrics(n, **dict(zip(stats, row)))
            for row in zip(*(value.tolist() for value in stats.values()))]


def _quantiles(rows: np.ndarray, qs: Sequence[float]) -> list[np.ndarray]:
    """``np.quantile(rows, qs, axis=1)`` bit for bit, for ``qs`` in [0, 1) and
    rows of two or more values.

    The "linear" method's order statistics come from one ``np.partition``,
    and NumPy's ``_lerp`` mixes each pair: a + (b - a) * t, or b - (b - a) *
    (1 - t) where t >= 0.5. ``np.quantile`` itself imports ``numpy.ma`` on
    its first call in a process, about 15 ms.
    """
    at = [(rows.shape[1] - 1) * q for q in qs]
    lows = [math.floor(v) for v in at]
    part = np.partition(rows, sorted({i for low in lows for i in (low, low + 1)}), axis=1)
    out = []
    for v, low in zip(at, lows):
        a, b, t = part[:, low], part[:, low + 1], v - low
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[tuple[float, AggregateMetrics]]:
    """Run the full neg_log_c grid in one pass; one (cost, AggregateMetrics) per point.

    It runs every config it is given, but warns, with one ``RuntimeWarning``
    per grid point, where a trial would need more rounds than
    ``cfg.max_rounds`` by :func:`_benchmark`'s estimate: there many trials
    may be truncated and count as errors, and the command line's resolver
    refuses the config with the same sentence.
    """
    _warn_over_budget(cfg)
    return list(zip(cfg.costs, aggregate(_run_grid(cfg, cfg.costs, workers), cfg.costs)))


def tau1_decay_diagnostic(cfg: ExperimentConfig, cost: float) -> DecayReport:
    """Fit the tail decay rate of the last-passage time over cfg's trials at ``cost``.

    Only correct, non-truncated trials contribute: tau1 measures when the
    true cell's lead became permanent, which is undefined on error paths.
    Warns as :func:`run_experiment` does, at ``cost``.
    """
    if POLICIES[cfg.policy].targets != "one":
        raise ValueError("last-passage diagnostic applies to single-target policies")
    _warn_over_budget(cfg, cost)
    # One grid point, so that the outcome bound counts the one cost this runs.
    cfg = replace(cfg, diagnostics=True, neg_log_c=cfg.neg_log_c[:1])
    return _fit_tau1_decay(_row(_run_grid(cfg, (cost,)), 0))


def _fit_tau1_decay(trials: TrialColumns) -> DecayReport:
    """The tail fit of :func:`tau1_decay_diagnostic` over a grid row of trials
    run with diagnostics on."""
    tau1s = trials.tau1[trials.correct]  # a correct trial is never truncated
    used = tau1s.size
    if used < 20:
        return DecayReport(used, None, None, 0, None, None, True)

    counts = np.bincount(tau1s)
    # survivors[n] = number of trials with tau1 > n
    survivors = used - np.cumsum(counts)
    survival = survivors / used
    # Every tau1 is at least 1, so survivors[0] = used >= 20, and none
    # survive the largest tau1: both index sets are non-empty.
    start = int(np.nonzero(survival <= 0.5)[0][0])
    stop = int(np.nonzero(survivors >= 5)[0][-1])
    ns = np.arange(start, stop + 1)
    ns = ns[survivors[ns] > 0]
    if ns.size < 5:
        return DecayReport(used, start, stop, int(ns.size), None, None, True)
    log_surv = np.log(survival[ns])
    slope, intercept = np.polyfit(ns, log_surv, 1)
    fitted = slope * ns + intercept
    rms = float(np.sqrt(np.mean((log_surv - fitted) ** 2)))
    return DecayReport(used, start, stop, int(ns.size), float(-slope), rms, False)
