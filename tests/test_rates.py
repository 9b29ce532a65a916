import math
import re
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from anomsearch import (
    Bernoulli,
    Exponential,
    Gaussian,
    ModelError,
    RateReport,
    bayes_lower_bound,
    rate_multi,
    rate_single,
    relative_loss,
    unknownl_lower_bound,
)
from anomsearch.policies import PolicyConfig
from anomsearch.rates import probing_regime

EXP_SLOW_FAST = Exponential(0.5, 10.0)  # d_gf=2.0457..., d_fg=16.0042...


def test_rate_report_validation():
    with pytest.raises(ValueError):
        RateReport(1.0, 1.0, 0.0, "g")
    with pytest.raises(ValueError):
        RateReport(1.0, 1.0, 1.0, "h")


class TestRateSingle:
    def test_regression_values(self):
        # frozen outputs for the two workhorse scenarios
        r = rate_single(EXP_SLOW_FAST, 5, 1)
        assert r.i_star == pytest.approx(4.001066931611502, rel=1e-12)
        assert r.regime == "f"

        r = rate_single(Exponential(2.0, 10.0), 5, 2)
        assert r.i_star == pytest.approx(1.4070784343255751, rel=1e-12)
        assert r.regime == "g"

    def test_validation(self):
        with pytest.raises(ValueError, match="^need at least two cells$"):
            rate_single(EXP_SLOW_FAST, 1, 1)
        with pytest.raises(ValueError, match=re.escape("probes per round must lie in [1, 5], got 6")):
            rate_single(EXP_SLOW_FAST, 5, 6)
        with pytest.raises(ValueError, match=re.escape("probes per round must lie in [1, 5], got 0")):
            rate_single(EXP_SLOW_FAST, 5, 0)


class TestRateMulti:
    def test_hand_computed_arms(self):
        model = Bernoulli(0.1, 0.6)
        d_gf, d_fg = model.kl_divergences()
        # M=5, K=3, L=2: chase arm d_gf + (3-2) d_fg / 3, clear arm 3 d_fg / 3
        r = rate_multi(model, 5, 3, 2)
        assert r.i_star == pytest.approx(max(d_gf + d_fg / 3, d_fg))

    def test_fewer_probes_than_targets(self):
        model = Exponential(10.0, 0.5)
        d_gf, d_fg = model.kl_divergences()
        # K=1 < L=2 rotates over candidates: d_gf / 2 vs clearing d_fg / 3
        r = rate_multi(model, 5, 1, 2)
        assert r.i_star == pytest.approx(max(d_gf / 2, d_fg / 3))
        assert r.regime == "g"

    def test_more_probes_than_normals(self):
        model = EXP_SLOW_FAST
        d_gf, d_fg = model.kl_divergences()
        # K=4 > M-L=3 spills one probe onto the candidates
        r = rate_multi(model, 5, 4, 2)
        assert r.i_star == pytest.approx(max(d_gf + 2 * d_fg / 3, d_fg + d_gf / 2))

    def test_validation(self):
        with pytest.raises(ValueError, match=re.escape("target count must lie in [1, 5), got 0")):
            rate_multi(EXP_SLOW_FAST, 5, 1, 0)
        with pytest.raises(ValueError, match=re.escape("target count must lie in [1, 5), got 5")):
            rate_multi(EXP_SLOW_FAST, 5, 1, 5)


class TestBayesLowerBound:
    def test_hand_value(self):
        assert bayes_lower_bound(0.01, 2.0) == pytest.approx(-0.01 * math.log(0.01) / 2)

    def test_scales_inversely_with_rate(self):
        assert bayes_lower_bound(0.05, 4.0) == pytest.approx(bayes_lower_bound(0.05, 2.0) / 2)

    def test_peaks_at_one_over_e(self):
        peak = bayes_lower_bound(math.exp(-1.0), 1.0)
        assert peak == pytest.approx(math.exp(-1.0))
        for c in (0.05, 0.2, 0.5, 0.9):
            assert bayes_lower_bound(c, 1.0) < peak

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            bayes_lower_bound(0.5, 0.0)

    def test_report_shortcut_matches(self):
        r = rate_single(EXP_SLOW_FAST, 5, 1)
        assert r.lower_bound_at(0.01) == bayes_lower_bound(0.01, r.i_star)


def test_relative_loss():
    assert relative_loss(1.5, 1.0) == pytest.approx(0.5)
    assert relative_loss(1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        relative_loss(1.0, 0.0)


class TestProbingRegime:
    """Regime "g" is D(g||f)/L >= D(f||g)/(M-L), which rearranges to M >=
    L (d_gf + d_fg) / d_gf; the unknown-count policy needs it at K = M."""

    def test_known_cases(self):
        # 2 (0.9014 + 0.4320) / 0.9014 = 2.958 fits inside M=3
        assert probing_regime(*Exponential(3.0, 1.0).kl_divergences(), 3, 2) == "g"
        # bernoulli(0.1, 0.6) needs M >= 3.467, so 3 cells fall short
        assert probing_regime(*Bernoulli(0.1, 0.6).kl_divergences(), 3, 2) == "f"
        assert probing_regime(*Bernoulli(0.1, 0.6).kl_divergences(), 4, 2) == "g"

    @given(
        lam_f=st.floats(0.1, 20.0),
        lam_g=st.floats(0.1, 20.0),
        m=st.integers(2, 8),
        data=st.data(),
    )
    def test_agrees_with_full_sweep_regime(self, lam_f, lam_g, m, data):
        l = data.draw(st.integers(1, m - 1))
        try:
            model = Exponential(lam_f, lam_g)
        except ModelError:  # f and g too close: a KL below the model's floor
            reject()
        d_gf, d_fg = model.kl_divergences()
        # keep clear of the knife edge where float rounding could differ
        assume(abs(m * d_gf - l * (d_gf + d_fg)) > 1e-9 * (d_gf + d_fg))
        expected = "g" if m * d_gf >= l * (d_gf + d_fg) else "f"
        assert probing_regime(d_gf, d_fg, m, l) == expected

    def test_exact_tie_takes_regime_g_everywhere(self):
        # Gaussian means 0 and 0.3 make D(g||f) = D(f||g) = 0.045, so at
        # M = 6, L = 3 the comparison D(g||f)/L >= D(f||g)/(M-L) is an exact
        # tie, which takes "g". Its rearranged form, M >= L (d_gf + d_fg) /
        # d_gf, rounds to 6 >= 6.000000000000001 and would say no.
        model = Gaussian(0.0, 0.3)
        d_gf, d_fg = model.kl_divergences()
        assert d_gf == d_fg
        # rate_multi reports the regime at every K, and that regime's rate.
        for k in range(1, 7):
            assert rate_multi(model, 6, k, 3).regime == "g"
        assert rate_multi(model, 6, 3, 3).i_star == 0.045
        assert PolicyConfig.for_model(model, 6, 1, 0.01, 3).multi_regime == "g"
        assert probing_regime(d_gf, d_fg, 6, 3) == "g"
        # The one-target tie of rate_single at K = M rounds the same way.
        assert rate_single(Gaussian(0.0, 0.3), 2, 2).regime == "g"


@given(
    family=st.sampled_from(["exponential", "bernoulli", "gaussian"]),
    x=st.floats(0.05, 0.95),
    y=st.floats(0.05, 0.95),
    m=st.integers(2, 12),
    nudge=st.integers(-4, 4),
    data=st.data(),
)
@settings(max_examples=400)
def test_rate_multi_reports_the_engines_regime_near_ties(family, x, y, m, nudge, data):
    # Each example checks the model's own KL pair and one on the regime
    # knife edge: d_gf = L d_fg / (M-L), nudged by ``nudge`` ulps.
    l = data.draw(st.integers(1, m - 1))
    k = data.draw(st.integers(1, m))
    try:
        model = {"exponential": lambda: Exponential(20 * x, 20 * y),
                 "bernoulli": lambda: Bernoulli(x, y),
                 "gaussian": lambda: Gaussian(0.0, 4 * y - 2 * x)}[family]()
    except ModelError:  # f and g too close: a KL below the model's floor
        reject()
    d_gf, d_fg = model.kl_divergences()
    edge = l * d_fg / (m - l)
    for _ in range(abs(nudge)):
        edge = math.nextafter(edge, math.copysign(math.inf, nudge))
    for d_gf in (d_gf, edge):
        report = rate_multi(SimpleNamespace(kl_divergences=lambda: (d_gf, d_fg)), m, k, l)
        assert report.regime == probing_regime(d_gf, d_fg, m, l)
        # The two arms written out: chasing the targets, clearing the normals.
        arm_g = d_gf + (k - l) * d_fg / (m - l) if k >= l else k * d_gf / l
        arm_f = d_fg + (k - m + l) * d_gf / l if k > m - l else k * d_fg / (m - l)
        if abs(arm_g - arm_f) > 1e-12 * max(arm_g, arm_f):
            assert report.i_star == max(arm_g, arm_f)


def test_unknownl_lower_bound():
    # three targets at c=0.1 against the slow/fast exponential pair
    got = unknownl_lower_bound(0.1, 3, EXP_SLOW_FAST)
    assert got == pytest.approx(3 * 0.1 * math.log(10.0) / 2.0457322735539907)
    with pytest.raises(ValueError):
        unknownl_lower_bound(0.1, 0, EXP_SLOW_FAST)
