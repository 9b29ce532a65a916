"""Asymptotic rate constants and Bayes-risk lower bounds.

The stopping rules in :mod:`anomsearch.policies` all trade observation cost
against error probability through a single constant: the rate at which the
decisive log-likelihood gap grows per round. These helpers compute that
constant for each scenario shape and turn it into the benchmark risk curve
-c log c / rate that simulated policies are measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .models import ObservationModel, check_cost, check_geometry

__all__ = [
    "RateReport",
    "rate_single",
    "rate_multi",
    "bayes_lower_bound",
    "relative_loss",
    "unknownl_lower_bound",
]


@dataclass(frozen=True)
class RateReport:
    """KL pair, achieved rate constant, and the probing regime that attains it.

    regime is "g" when the rate comes from reinforcing suspected targets,
    "f" when it comes from clearing the other cells; ties report "g".
    ``rate_multi`` takes both from ``probing_plan``, so its regime is the one
    the engine probes in.
    """

    d_gf: float
    d_fg: float
    i_star: float
    regime: str

    def __post_init__(self) -> None:
        if not self.i_star > 0.0:
            raise ValueError(f"rate constant must be positive, got {self.i_star}")
        if self.regime not in ("g", "f"):
            raise ValueError(f"regime must be 'g' or 'f', got {self.regime!r}")

    def lower_bound_at(self, cost: float) -> float:
        return bayes_lower_bound(cost, self.i_star)


def probing_regime(d_gf: float, d_fg: float, num_cells: int, num_targets: int) -> str:
    """The probing regime: "g" (chase the leading cells) when D(g||f)/L >=
    D(f||g)/(M-L), ties included, else "f" (clear the runners-up). The
    package's one copy of this comparison; policies and the maximin mixture
    call it, and ``rate_multi`` and the engine read it through
    ``probing_plan``."""
    return "g" if d_gf / num_targets >= d_fg / (num_cells - num_targets) else "f"


def probing_plan(d_gf: float, d_fg: float, num_cells: int, probes_per_round: int,
                 num_targets: int) -> tuple[str, int, float]:
    """(regime, first, rate): what a ranked policy probes each round and the
    gap growth rate that buys. It probes the K consecutive ranks from
    ``first`` (0-based). In "g" the window holds the top L cells, or the L-th
    and the K-1 above it while K < L; in "f" it holds ranks L+1..L+K, or the
    bottom K while K > M-L, which also reach into the top L."""
    m, k, l = num_cells, probes_per_round, num_targets
    regime = probing_regime(d_gf, d_fg, m, l)
    if k == m:
        return regime, 0, d_gf + d_fg
    if regime == "g":
        return ("g", 0, d_gf + (k - l) * d_fg / (m - l)) if k >= l else ("g", l - k, k * d_gf / l)
    return ("f", m - k, d_fg + (k - m + l) * d_gf / l) if k > m - l else ("f", l, k * d_fg / (m - l))


def rate_single(model: ObservationModel, num_cells: int, probes_per_round: int) -> RateReport:
    """Gap growth rate for the one-target search probing K of M cells per round.

    Probing everything accrues d_gf + d_fg per round. Otherwise the rate is
    the better of the two arms: spending all K probes on the runners-up
    (K d_fg / (M-1)) or pinning the leader and spreading the rest
    (d_gf + (K-1) d_fg / (M-1)).
    """
    return rate_multi(model, num_cells, probes_per_round, 1)


def rate_multi(
    model: ObservationModel, num_cells: int, probes_per_round: int, num_targets: int
) -> RateReport:
    """Gap growth rate with L targets; ``rate_single`` is its L=1 case.

    The rate and regime are ``probing_plan``'s. Both arms generalize the
    single-target ones. Chasing targets yields d_gf + (K-L) d_fg / (M-L)
    once every target is covered (K >= L), else K d_gf / L with the probes
    rotating over the L weakest candidates. Clearing normals yields
    K d_fg / (M-L) while they can absorb all probes (K <= M-L), else
    d_fg + (K-M+L) d_gf / L. The regime's arm is the better one, up to
    rounding at a tie, and at K = M both are d_gf + d_fg.
    """
    check_geometry(num_cells, probes_per_round, num_targets)
    d_gf, d_fg = model.kl_divergences()
    regime, _, rate = probing_plan(d_gf, d_fg, num_cells, probes_per_round, num_targets)
    return RateReport(d_gf, d_fg, rate, regime)


def bayes_lower_bound(cost: float, i_star: float) -> float:
    """Benchmark risk -c log c / i_star; no policy beats it asymptotically."""
    check_cost(cost)
    if not i_star > 0.0:
        raise ValueError(f"rate constant must be positive, got {i_star}")
    return -cost * math.log(cost) / i_star


def relative_loss(r_policy: float, r_lb: float) -> float:
    """Excess risk of a policy over the benchmark, as a fraction of the benchmark."""
    if not r_lb > 0.0:
        raise ValueError(f"benchmark risk must be positive, got {r_lb}")
    return (r_policy - r_lb) / r_lb


def unknownl_lower_bound(cost: float, true_target_count: int, model: ObservationModel) -> float:
    """Benchmark risk with an unknown target count: -ell c log c / d_gf.

    ``true_target_count`` is the ground-truth number of targets ell, known
    to the experiment harness but not to the policy under test.
    """
    check_cost(cost)
    if true_target_count < 1:
        raise ValueError(f"true target count must be positive, got {true_target_count}")
    d_gf, _ = model.kl_divergences()
    return -true_target_count * cost * math.log(cost) / d_gf
