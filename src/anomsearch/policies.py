"""Probing, stopping, and decision rules.

All policies share one per-step contract: given the current
:class:`~anomsearch.state.SearchState` and a :class:`PolicyConfig`, return a
:class:`PolicyAction` that is either

* ``Probe(cells)``: take one observation from each listed cell this round,
* ``Declare(cells, kind)``: mark cells abnormal/normal and ask to be called
  again immediately (no observations are consumed), or
* ``Stop(decision)``: terminate and output the declared-abnormal set.

The deterministic policies (``dgf_step``, ``dgfl_step``, ``seq_dgfl_step``,
``unknownl_step``) are pure functions of the state; the randomized Chernoff
variants additionally consume a caller-owned ``numpy.random.Generator``.

Which cells a policy chases is decided once per configuration by comparing
the two KL divergences. Writing d_gf = D(g||f) and d_fg = D(f||g): evidence
against a probed abnormal cell accrues at rate d_gf, and evidence clearing a
probed normal cell accrues at rate d_fg. When d_gf >= d_fg/(M-1) it pays to
probe the leading cells directly (the "g" regime); otherwise it is faster to
eliminate the runners-up (the "f" regime). That comparison names the dgf
policy, and the multi-target analog compares d_gf/L against d_fg/(M-L),
which is the same comparison at L = 1; ``rates.probing_regime`` makes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .models import ObservationModel, check_cost, check_geometry
from .rates import probing_regime
from .state import SearchState, ranked_cells

__all__ = [
    "Probe",
    "Declare",
    "Stop",
    "PolicyConfig",
    "dgf_step",
    "chernoff_step",
    "dgfl_step",
    "seq_dgfl_step",
    "unknownl_step",
    "ml_hypothesis",
    "generic_stop_margin",
    "chernoff_generic_step",
]


@dataclass(frozen=True)
class Probe:
    cells: tuple[int, ...]


@dataclass(frozen=True)
class Declare:
    cells: tuple[int, ...]
    kind: str  # "abnormal" or "normal"


@dataclass(frozen=True)
class Stop:
    decision: tuple[int, ...]  # cells declared abnormal, ascending


PolicyAction = Union[Probe, Declare, Stop]


@dataclass(frozen=True)
class PolicyConfig:
    """Dimensions, threshold, and cached regime comparison for one scenario.

    num_cells/probes_per_round/num_targets are M, K, L of the config schema.
    ``threshold`` is -log c, the evidence margin every stopping rule needs.
    ``multi_regime`` caches ``rates.probing_regime``, which serves the
    single-target rules too. Build one with :meth:`for_model`.
    """

    num_cells: int
    probes_per_round: int
    num_targets: int
    threshold: float
    multi_regime: str

    @classmethod
    def for_model(
        cls,
        model: ObservationModel,
        num_cells: int,
        probes_per_round: int,
        cost: float,
        num_targets: int = 1,
    ) -> "PolicyConfig":
        m, k, l = num_cells, probes_per_round, num_targets
        check_geometry(m, k, l)
        check_cost(cost)
        d_gf, d_fg = model.kl_divergences()
        return cls(
            num_cells=m,
            probes_per_round=k,
            num_targets=l,
            threshold=-math.log(cost),
            multi_regime=probing_regime(d_gf, d_fg, m, l),
        )


def _require_single_target(cfg: PolicyConfig) -> None:
    if cfg.num_targets != 1:
        raise ValueError("this policy handles exactly one target; configure num_targets=1")


def _require_one_probe(cfg: PolicyConfig) -> None:
    if cfg.probes_per_round != 1:
        raise ValueError("this policy probes one cell per round; configure probes_per_round=1")


def dgf_step(state: SearchState, cfg: PolicyConfig) -> PolicyAction:
    """Deterministic single-target rule.

    Stop and output the leading cell once its lead over the runner-up
    reaches the threshold. Until then probe the top K cells in the "g"
    regime (or when probing everything anyway), else cells ranked 2..K+1:
    the leader needs no further evidence in the "f" regime, its pursuers do.
    """
    _require_single_target(cfg)
    order = ranked_cells(state)
    s = state.s
    if s[order[0]] - s[order[1]] >= cfg.threshold:
        return Stop((order[0],))
    k = cfg.probes_per_round
    if cfg.multi_regime == "g" or k == cfg.num_cells:
        return Probe(tuple(order[:k]))
    return Probe(tuple(order[1 : k + 1]))


def chernoff_step(state: SearchState, cfg: PolicyConfig, rng: np.random.Generator) -> PolicyAction:
    """Randomized single-target rule with the same stop test as ``dgf_step``.

    In the "g" regime the leader is always probed and the remaining K-1
    probes are a uniform subset of the other cells; in the "f" regime all K
    probes are a uniform subset of the non-leading cells. Subsets are drawn
    without replacement, uniformly over subsets.
    """
    _require_single_target(cfg)
    order = ranked_cells(state)
    s = state.s
    if s[order[0]] - s[order[1]] >= cfg.threshold:
        return Stop((order[0],))
    k = cfg.probes_per_round
    if k == cfg.num_cells:
        return Probe(tuple(order))
    if cfg.multi_regime == "g":
        rest = _uniform_subset(order[1:], k - 1, rng)
        return Probe((order[0], *rest))
    return Probe(tuple(_uniform_subset(order[1:], k, rng)))


def _uniform_subset(pool: list[int], size: int, rng: np.random.Generator) -> list[int]:
    # Partial Fisher-Yates: uniform over size-subsets, cheap for tiny pools.
    n = len(pool)
    for i in range(size):
        j = i + int(rng.integers(n - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:size]


def dgfl_step(state: SearchState, cfg: PolicyConfig) -> PolicyAction:
    """Deterministic rule for a known number L of targets.

    Stop when the L-th ranked cell leads the (L+1)-th by the threshold and
    output the top L. Otherwise the probe set depends on the regime:

    * "g" regime: the top K cells if K >= L, else the bottom K of the top L
      (ranks L-K+1..L), reinforcing the weakest current candidates.
    * "f" regime: the bottom K cells if K > M-L, else ranks L+1..L+K,
      knocking down the strongest current non-candidates.

    With L=1 every branch reduces to ``dgf_step``.
    """
    order = ranked_cells(state)
    s = state.s
    l, k, m = cfg.num_targets, cfg.probes_per_round, cfg.num_cells
    if s[order[l - 1]] - s[order[l]] >= cfg.threshold:
        return Stop(tuple(sorted(order[:l])))
    if cfg.multi_regime == "g":
        cells = order[:k] if k >= l else order[l - k : l]
    else:
        cells = order[m - k :] if k > m - l else order[l : l + k]
    return Probe(tuple(cells))


def seq_dgfl_step(state: SearchState, cfg: PolicyConfig) -> PolicyAction:
    """One-cell-at-a-time variant for L known targets, probing one cell per round.

    "g" regime: chase the current best undeclared cell; when its sum LLR
    alone reaches the threshold, declare it abnormal and restart the chase
    on the remaining cells; stop once L cells are declared. "f" regime:
    grind down the current worst undeclared cell; when its sum LLR falls to
    log c, declare it normal; after M-L normal declarations the L survivors
    are declared abnormal together at termination.
    """
    _require_one_probe(cfg)
    s = state.s
    m, l = cfg.num_cells, cfg.num_targets
    if cfg.multi_regime == "g":
        declared = state.declared_abnormal
        if len(declared) >= l:
            return Stop(tuple(sorted(declared)))
        best = -1
        for cell in range(m):
            if cell in declared:
                continue
            if best < 0 or s[cell] > s[best]:
                best = cell
        if s[best] >= cfg.threshold:
            return Declare((best,), "abnormal")
        return Probe((best,))
    declared = state.declared_normal
    if len(declared) >= m - l:
        survivors = tuple(cell for cell in range(m) if cell not in declared)
        return Stop(survivors)
    worst = -1
    for cell in range(m):
        if cell in declared:
            continue
        if worst < 0 or s[cell] < s[worst]:
            worst = cell
    if s[worst] <= -cfg.threshold:
        return Declare((worst,), "normal")
    return Probe((worst,))


def unknownl_step(state: SearchState, cfg: PolicyConfig) -> PolicyAction:
    """Probe-one rule when only an upper bound on the target count is known.

    Any cell whose sum LLR reaches the threshold is declared abnormal and
    frozen (never probed again). Among the rest, always probe the current
    maximum. The test terminates when every cell is resolved, i.e. has
    |sum LLR| at the threshold: declared cells sit at or above it, the rest
    must have cleared themselves below its negative. Cells between the two
    bars stay in play, so the stop test re-checks every cell each round.
    The decision is the declared set, whatever its size.
    """
    _require_one_probe(cfg)
    s = state.s
    thr = cfg.threshold
    declared = state.declared_abnormal
    newly = tuple(cell for cell in range(cfg.num_cells) if cell not in declared and s[cell] >= thr)
    if newly:
        return Declare(newly, "abnormal")
    best = -1
    done = True
    for cell in range(cfg.num_cells):
        if cell in declared:
            continue
        if abs(s[cell]) < thr:
            done = False
        if best < 0 or s[cell] > s[best]:
            best = cell
    if done:
        return Stop(tuple(sorted(declared)))
    return Probe((best,))


def ml_hypothesis(scores: Sequence[float]) -> int:
    """Index of the maximum accumulated log-likelihood; ties take the lowest index."""
    best = 0
    for j in range(1, len(scores)):
        if scores[j] > scores[best]:
            best = j
    return best


def generic_stop_margin(scores: Sequence[float], ml_index: int) -> float:
    """Log-likelihood lead of the ML hypothesis over its closest rival."""
    rival = -math.inf
    for j, v in enumerate(scores):
        if j != ml_index and v > rival:
            rival = v
    return scores[ml_index] - rival


def chernoff_generic_step(
    scores: Sequence[float],
    rng: np.random.Generator,
    q_cache: Sequence[np.ndarray],
) -> int:
    """One probing decision of the general-hypothesis Chernoff test.

    `scores` holds each hypothesis's accumulated log-likelihood (any common
    additive constant may be dropped). The action distribution is the
    maximin KL mixture against the ML hypothesis's rivals, which does not
    change over time, so ``q_cache`` holds one precomputed mixture per
    hypothesis (from ``oracle.anomaly_maximin`` on the anomaly family, or
    ``oracle.maximin_action_distribution`` on any other). Returns the
    sampled action index.
    """
    q = q_cache[ml_hypothesis(scores)]
    u = rng.random()
    acc = 0.0
    last = len(q) - 1
    for action, weight in enumerate(q):
        acc += weight
        if u < acc or action == last:
            return action
    raise AssertionError("unreachable: mixture weights sum to 1")
