"""The maximin game of ``chernoff_generic``: closed form, solvers, ``verify`` references.

Chernoff's randomized test probes from the distribution q over actions that
maximizes the smallest q-weighted KL drift separating the ML hypothesis from
each rival. On the anomaly family ``anomaly_maximin`` gives it in closed form,
and ``sim._generic_tables`` builds ``chernoff_generic``'s mixtures from it.
``maximin_action_distribution`` solves the game for any finite hypothesis set
as a tiny linear program in epigraph form, and ``maximin_action_grid`` by a
dense simplex scan on small fixtures; ``--preset verify`` and the tests check
the closed form against them. ``kl_quadrature`` recomputes both KL
divergences of a model by adaptive numerical integration (or exact summation
for discrete kinds), as a check on the closed forms in :mod:`anomsearch.models`.

``sim`` and ``cli`` import this module at start-up, so it imports no SciPy
solver at module level: ``maximin_action_distribution`` loads
``scipy.optimize`` and ``kl_quadrature`` loads ``scipy.integrate`` on first
call, which only ``--preset verify`` and the tests make.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .models import Bernoulli, Exponential, Gaussian, ObservationModel, Tabulated
from .rates import probing_regime

__all__ = [
    "HypothesisActionKL",
    "anomaly_hypotheses",
    "hypothesis_action_kl",
    "maximin_action_distribution",
    "maximin_action_grid",
    "kl_quadrature",
]


@dataclass(frozen=True)
class HypothesisActionKL:
    """KL separations D(p_i^u || p_j^u) indexed by (hypothesis i, hypothesis j, action u).

    For the anomaly structure every entry is 0, D(g||f), or D(f||g): probing
    cell u distinguishes hypotheses i and j only when u lies in exactly one
    of their target sets.
    """

    hypotheses: tuple[tuple[int, ...], ...]
    entries: np.ndarray  # shape (H, H, U), non-negative, zero diagonal

    def __post_init__(self) -> None:
        h = len(self.hypotheses)
        if self.entries.shape[:2] != (h, h):
            raise ValueError("entries must be square in the hypothesis indices")
        if np.any(self.entries < 0):
            raise ValueError("KL entries must be non-negative")
        if np.any(self.entries[np.arange(h), np.arange(h), :] != 0):
            raise ValueError("diagonal KL entries must be zero")


def anomaly_hypotheses(num_cells: int, max_targets: int = 1) -> tuple[tuple[int, ...], ...]:
    """All candidate target sets with 1..max_targets members.

    Ordered by size then lexicographically, so for 3 cells and up to 2
    targets: (0,), (1,), (2,), (0,1), (0,2), (1,2).
    """
    if not 1 <= max_targets <= num_cells:
        raise ValueError("need 1 <= max_targets <= num_cells")
    out: list[tuple[int, ...]] = []
    for size in range(1, max_targets + 1):
        out.extend(itertools.combinations(range(num_cells), size))
    return tuple(out)


def hypothesis_action_kl(model: ObservationModel, hypotheses: Sequence[Sequence[int]], num_cells: int) -> HypothesisActionKL:
    """Build the (hypothesis, hypothesis, cell) KL table for a target-set family."""
    d_gf, d_fg = model.kl_divergences()
    hyps = tuple(tuple(sorted(h)) for h in hypotheses)
    masks = np.zeros((len(hyps), num_cells), dtype=bool)
    for i, h in enumerate(hyps):
        for cell in h:
            if not 0 <= cell < num_cells:
                raise ValueError(f"hypothesis {h} targets cell {cell} outside [0, {num_cells})")
            masks[i, cell] = True
    in_i = masks[:, None, :]
    in_j = masks[None, :, :]
    entries = np.where(in_i & ~in_j, d_gf, 0.0) + np.where(~in_i & in_j, d_fg, 0.0)
    return HypothesisActionKL(hypotheses=hyps, entries=entries)


def _rival_rows(kl: HypothesisActionKL, ml_hypothesis: int) -> np.ndarray:
    h = len(kl.hypotheses)
    if not 0 <= ml_hypothesis < h:
        raise ValueError(f"ml_hypothesis {ml_hypothesis} out of range [0, {h})")
    if h < 2:
        raise ValueError("need at least two hypotheses")
    keep = [j for j in range(h) if j != ml_hypothesis]
    return kl.entries[ml_hypothesis, keep, :]


def maximin_action_distribution(kl: HypothesisActionKL, ml_hypothesis: int) -> tuple[np.ndarray, float]:
    """Best randomized probe against the hardest rival of the ML hypothesis.

    Solves max over the action simplex of min_j sum_u q_u * KL[i_hat, j, u]
    as a linear program: maximize t subject to A q >= t, sum q = 1, q >= 0.
    Returns (q, value). A value of zero means some rival hypothesis is
    observationally indistinguishable from the ML one; callers are expected
    to treat that as a degeneracy report, not an exception.
    """
    from scipy import optimize

    rows = _rival_rows(kl, ml_hypothesis)
    n_rival, n_act = rows.shape
    if n_act < 1:
        raise ValueError("need at least one action")
    # Variables x = (q_0..q_{U-1}, t); maximize t.
    c = np.zeros(n_act + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-rows, np.ones((n_rival, 1))])
    b_ub = np.zeros(n_rival)
    a_eq = np.zeros((1, n_act + 1))
    a_eq[0, :n_act] = 1.0
    b_eq = np.ones(1)
    bounds = [(0.0, 1.0)] * n_act + [(0.0, None)]
    res = optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"maximin LP failed: {res.message}")
    q = np.clip(res.x[:n_act], 0.0, None)
    q /= q.sum()
    return q, float(res.x[-1])


def anomaly_maximin(d_gf: float, d_fg: float, num_cells: int, max_targets: int,
                    size: int) -> tuple[float, float, float]:
    """(a, b, value): :func:`maximin_action_distribution` in closed form for an
    ML set of ``size`` among the sets of 1..max_targets of ``num_cells`` cells,
    which by symmetry puts a on each member and b on each other cell. Only a
    dropped member (KL a D(g||f)), an added cell (b D(f||g)) or a swap (their
    sum) can bind; the L = 1 tie takes a = 1, as ``rate_multi`` takes "g" at
    every K."""
    m, l = num_cells, size
    if l == max_targets and (l >= 2 or probing_regime(d_gf, d_fg, m, 1) == "g"):
        a, b = 1.0 / l, 0.0
    elif l == 1:
        a, b = 0.0, 1.0 / (m - 1)
    else:  # a D(g||f) = b D(f||g), scaled by the larger so that any pair stays finite
        x, y = d_gf / max(d_gf, d_fg), d_fg / max(d_gf, d_fg)
        a, b = y / (l * y + (m - l) * x), x / (l * y + (m - l) * x)
    drop = a * d_gf if l >= 2 else math.inf
    add = b * d_fg if l < max_targets else math.inf
    return a, b, min(a * d_gf + b * d_fg, drop, add)


def _simplex_grid(n_actions: int, steps: int) -> Iterable[np.ndarray]:
    """Yield batches of integer compositions of `steps` into n_actions parts.

    The final two coordinates are vectorized; earlier ones are enumerated,
    which keeps this practical for the <=4-action fixtures it exists for.
    """
    if n_actions == 1:
        yield np.array([[steps]], dtype=np.int64)
        return
    head_dims = n_actions - 2
    for head in itertools.product(*(range(steps + 1) for _ in range(head_dims))):
        used = sum(head)
        if used > steps:
            continue
        rest = steps - used
        second = np.arange(rest + 1, dtype=np.int64)
        batch = np.empty((rest + 1, n_actions), dtype=np.int64)
        batch[:, :head_dims] = head
        batch[:, -2] = second
        batch[:, -1] = rest - second
        yield batch


def maximin_action_grid(kl: HypothesisActionKL, ml_hypothesis: int, step: float = 1e-3) -> tuple[np.ndarray, float]:
    """Dense-scan counterpart of :func:`maximin_action_distribution`.

    Evaluates the min-over-rivals objective on the whole simplex grid with
    the given resolution and returns the best grid point. Only sensible for
    a handful of actions; tests use it to corroborate the LP.
    """
    rows = _rival_rows(kl, ml_hypothesis)
    n_act = rows.shape[1]
    steps = round(1.0 / step)
    best_val = -math.inf
    best_q: np.ndarray | None = None
    for batch in _simplex_grid(n_act, steps):
        q = batch.astype(np.float64) / steps
        vals = (q @ rows.T).min(axis=1)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_q = q[k]
    assert best_q is not None
    return best_q, best_val


def kl_quadrature(model: ObservationModel) -> tuple[float, float]:
    """(D(g||f), D(f||g)) by numerical integration / exact summation.

    Test-only reference: slower but independent of the closed forms.
    """
    from scipy import integrate

    if isinstance(model, (Bernoulli, Tabulated)):
        if isinstance(model, Bernoulli):
            support: Sequence[float] = (0.0, 1.0)
            pmf_f = (1.0 - model.p_f, model.p_f)
            pmf_g = (1.0 - model.p_g, model.p_g)
        else:
            support, pmf_f, pmf_g = model.support, model.pmf_f, model.pmf_g
        d_gf = math.fsum(q * math.log(q / p) for p, q in zip(pmf_f, pmf_g))
        d_fg = math.fsum(p * math.log(p / q) for p, q in zip(pmf_f, pmf_g))
        return d_gf, d_fg

    if isinstance(model, Exponential):
        lo, hi = 0.0, math.inf

        def log_f(y: float) -> float:
            return math.log(model.lambda_f) - model.lambda_f * y

        def log_g(y: float) -> float:
            return math.log(model.lambda_g) - model.lambda_g * y

    elif isinstance(model, Gaussian):
        lo, hi = -math.inf, math.inf
        norm = -0.5 * math.log(2.0 * math.pi * model.sigma ** 2)

        def log_f(y: float) -> float:
            return norm - (y - model.mu_f) ** 2 / (2.0 * model.sigma ** 2)

        def log_g(y: float) -> float:
            return norm - (y - model.mu_g) ** 2 / (2.0 * model.sigma ** 2)

    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")

    def integrand(log_p: Callable[[float], float], log_q: Callable[[float], float]):
        def fn(y: float) -> float:
            return math.exp(log_p(y)) * (log_p(y) - log_q(y))

        return fn

    d_gf, err_gf = integrate.quad(integrand(log_g, log_f), lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
    d_fg, err_fg = integrate.quad(integrand(log_f, log_g), lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
    if max(err_gf, err_fg) > 1e-9:
        raise RuntimeError(f"quadrature did not converge: error estimates {err_gf:.2g}, {err_fg:.2g}")
    return d_gf, d_fg
