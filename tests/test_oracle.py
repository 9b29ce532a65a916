import numpy as np
import pytest

from anomsearch import (
    Bernoulli,
    Exponential,
    Gaussian,
    HypothesisActionKL,
    Tabulated,
    anomaly_hypotheses,
    hypothesis_action_kl,
    kl_quadrature,
    maximin_action_distribution,
    maximin_action_grid,
)
from anomsearch.oracle import anomaly_maximin


class TestAnomalyHypotheses:
    def test_single_target_identity(self):
        assert anomaly_hypotheses(4) == ((0,), (1,), (2,), (3,))

    def test_size_then_lex_order(self):
        assert anomaly_hypotheses(3, max_targets=2) == (
            (0,), (1,), (2,), (0, 1), (0, 2), (1, 2),
        )

    def test_counts(self):
        assert len(anomaly_hypotheses(4, max_targets=2)) == 4 + 6
        assert len(anomaly_hypotheses(5, max_targets=5)) == 2**5 - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            anomaly_hypotheses(3, max_targets=4)
        with pytest.raises(ValueError):
            anomaly_hypotheses(3, max_targets=0)


class TestHypothesisActionKL:
    MODEL = Bernoulli(0.1, 0.6)

    def test_single_target_entries(self):
        d_gf, d_fg = self.MODEL.kl_divergences()
        kl = hypothesis_action_kl(self.MODEL, anomaly_hypotheses(3), 3)
        assert kl.entries.shape == (3, 3, 3)
        # probing my target while the rival calls it normal earns d_gf,
        # probing the rival's target earns d_fg, anywhere else nothing
        assert kl.entries[0, 1, 0] == pytest.approx(d_gf)
        assert kl.entries[0, 1, 1] == pytest.approx(d_fg)
        assert kl.entries[0, 1, 2] == 0.0
        assert np.all(kl.entries[np.arange(3), np.arange(3), :] == 0.0)

    def test_overlapping_sets_cancel(self):
        d_gf, d_fg = self.MODEL.kl_divergences()
        hyps = ((0,), (0, 1))
        kl = hypothesis_action_kl(self.MODEL, hyps, 3)
        row = kl.entries[0, 1, :]
        assert row[0] == 0.0  # shared target tells the two apart not at all
        assert row[1] == pytest.approx(d_fg)
        assert row[2] == 0.0

    def test_rejects_out_of_range_cell(self):
        with pytest.raises(ValueError):
            hypothesis_action_kl(self.MODEL, ((3,),), 3)

    def test_structural_validation(self):
        bad = np.ones((2, 2, 1))
        with pytest.raises(ValueError):
            HypothesisActionKL(hypotheses=((0,), (1,)), entries=bad)
        with pytest.raises(ValueError):
            HypothesisActionKL(hypotheses=((0,), (1,)), entries=-np.ones((2, 2, 1)))


class TestMaximin:
    # The LP's value and mixture against the closed forms are criterion 07's
    # and test_lockstep.py's test_closed_form_matches_the_lp.
    def test_grid_agrees_with_lp(self):
        # Every optimum sits exactly on its simplex grid: [0, .5, .5] and
        # [1, 0, 0] on three cells, [1, 0, 0, 0] on four (whose scan skips
        # the heads past the step count), and the one action's [1].
        cases = [(hypothesis_action_kl(model, anomaly_hypotheses(m), m), step)
                 for model, m, step in ((Exponential(0.5, 10.0), 3, 1e-2),
                                        (Exponential(10.0, 0.5), 3, 1e-2),
                                        (Exponential(10.0, 0.5), 4, 0.05))]
        one_action = HypothesisActionKL(((0,), (1,)), np.array([[[0.0], [2.0]], [[3.0], [0.0]]]))
        for kl, step in [*cases, (one_action, 1e-2)]:
            q_lp, v_lp = maximin_action_distribution(kl, 0)
            q_gr, v_gr = maximin_action_grid(kl, 0, step=step)
            assert v_gr == pytest.approx(v_lp, abs=1e-4)
            assert q_gr == pytest.approx(q_lp, abs=1e-2)

    def test_indistinguishable_rival_reported_as_zero(self):
        model = Bernoulli(0.1, 0.6)
        kl = hypothesis_action_kl(model, ((0,), (0,), (1,)), 3)
        q, value = maximin_action_distribution(kl, 0)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert q.sum() == pytest.approx(1.0)

    def test_ml_index_validation(self):
        model = Bernoulli(0.1, 0.6)
        kl = hypothesis_action_kl(model, anomaly_hypotheses(3), 3)
        with pytest.raises(ValueError):
            maximin_action_distribution(kl, 3)
        with pytest.raises(ValueError):
            maximin_action_distribution(kl, -1)


class TestKlQuadrature:
    # run_verification checks the fig2 pair, Exponential(2, 10), the unit
    # Gaussian and Bernoulli(0.2, 0.8); these are the cases it leaves out.
    @pytest.mark.parametrize("model", [Gaussian(-1.0, 2.0, sigma=1.5)], ids=["gauss-scaled"])
    def test_continuous_models_match_closed_form(self, model):
        d_gf, d_fg = model.kl_divergences()
        q_gf, q_fg = kl_quadrature(model)
        assert q_gf == pytest.approx(d_gf, abs=1e-6)
        assert q_fg == pytest.approx(d_fg, abs=1e-6)

    @pytest.mark.parametrize("model", [
        Tabulated((0, 1, 2), (0.5, 0.3, 0.2), (0.1, 0.2, 0.7)),
    ], ids=["tabulated"])
    def test_discrete_models_are_summed_exactly(self, model):
        d_gf, d_fg = model.kl_divergences()
        q_gf, q_fg = kl_quadrature(model)
        assert q_gf == pytest.approx(d_gf, abs=1e-12)
        assert q_fg == pytest.approx(d_fg, abs=1e-12)


class TestAnomalyMaximin:
    @pytest.mark.parametrize("d_gf, d_fg", [(1e-9, 1e300), (1e300, 1e-9), (1e15, 1.0)])
    @pytest.mark.parametrize("m, max_targets", [(2, 1), (5, 1), (5, 3), (10, 4)])
    def test_weights_stay_finite_at_extreme_divergences(self, d_gf, d_fg, m, max_targets):
        # Where HiGHS once failed on a constraint entry of 1e15 or more.
        for size in range(1, max_targets + 1):
            a, b, value = anomaly_maximin(d_gf, d_fg, m, max_targets, size)
            assert np.isfinite([a, b, value]).all() and min(a, b) >= 0.0 and value > 0.0
            assert size * a + (m - size) * b == pytest.approx(1.0, rel=0, abs=1e-12)
