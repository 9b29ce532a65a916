import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anomsearch import (
    Bernoulli,
    Declare,
    Exponential,
    Gaussian,
    PolicyConfig,
    Probe,
    SearchState,
    Stop,
    anomaly_hypotheses,
    chernoff_generic_step,
    chernoff_step,
    dgf_step,
    dgfl_step,
    generic_stop_margin,
    hypothesis_action_kl,
    maximin_action_distribution,
    ml_hypothesis,
    rate_multi,
    seq_dgfl_step,
    unknownl_step,
)

# Exponential(0.5, 10): d_gf = 2.05 < d_fg/(M-1) = 4.0 at M=5, the
# "knock down the normals" side. Swapping the rates flips the comparison.
F_SIDE = Exponential(0.5, 10.0)
G_SIDE = Exponential(10.0, 0.5)


def make_state(sums):
    state = SearchState(len(sums))
    for i, v in enumerate(sums):
        state.s[i] = float(v)
    return state


def cfg_for(model, m, k, cost=math.exp(-5.0), l=1):
    return PolicyConfig.for_model(model, m, k, cost, num_targets=l)


class TestPolicyConfig:
    def test_regime_flags(self):
        assert cfg_for(F_SIDE, 5, 1).multi_regime == "f"
        assert cfg_for(G_SIDE, 5, 1).multi_regime == "g"
        # ties go to "g": gaussian KLs are symmetric, M=2 makes them equal
        assert cfg_for(Gaussian(0.0, 1.5), 2, 1).multi_regime == "g"
        assert rate_multi(Gaussian(0.0, 1.5), 2, 2, 1).regime == "g"
        assert cfg_for(Bernoulli(0.5, 0.9), 2, 1).threshold == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="^need at least two cells$"):
            cfg_for(F_SIDE, 1, 1)
        with pytest.raises(ValueError, match=re.escape("probes per round must lie in [1, 5], got 6")):
            cfg_for(F_SIDE, 5, 6)
        with pytest.raises(ValueError, match=re.escape("probes per round must lie in [1, 5], got 0")):
            cfg_for(F_SIDE, 5, 0)
        with pytest.raises(ValueError, match=re.escape("target count must lie in [1, 5), got 5")):
            cfg_for(F_SIDE, 5, 1, l=5)

    def test_multi_regime_uses_target_count(self):
        # d_gf/L >= d_fg/(M-L) can differ from the single-target comparison
        cfg = cfg_for(Bernoulli(0.1, 0.6), 3, 1, l=2)
        d_gf, d_fg = Bernoulli(0.1, 0.6).kl_divergences()
        expected = "g" if d_gf / 2 >= d_fg / 1 else "f"
        assert cfg.multi_regime == expected


class TestDgfStep:
    def test_stops_on_gap(self):
        cfg = cfg_for(F_SIDE, 4, 1, cost=math.exp(-3.0))
        state = make_state([4.0, 0.9, 0.0, -1.0])
        assert dgf_step(state, cfg) == Stop((0,))

    def test_below_gap_probes(self):
        cfg = cfg_for(F_SIDE, 4, 1, cost=math.exp(-3.0))
        state = make_state([2.0, 0.0, -1.0, -5.0])
        # f side: leave the leader alone, hit the runner-up
        assert dgf_step(state, cfg) == Probe((1,))

    def test_g_side_probes_top_k(self):
        cfg = cfg_for(G_SIDE, 5, 2)
        state = make_state([1.0, 3.0, 0.0, -1.0, 2.0])
        assert dgf_step(state, cfg) == Probe((1, 4))

    def test_f_side_probes_ranks_2_to_k_plus_1(self):
        cfg = cfg_for(F_SIDE, 5, 2)
        state = make_state([1.0, 3.0, 0.0, -1.0, 2.0])
        assert dgf_step(state, cfg) == Probe((4, 0))

    def test_probe_everything_when_k_equals_m(self):
        cfg = cfg_for(F_SIDE, 3, 3)
        state = make_state([0.5, 0.0, 1.0])
        assert dgf_step(state, cfg) == Probe((2, 0, 1))

    def test_rejects_multi_target_config(self):
        cfg = cfg_for(F_SIDE, 4, 1, l=2)
        with pytest.raises(ValueError):
            dgf_step(make_state([0, 0, 0, 0]), cfg)


class TestChernoffStep:
    def test_same_stop_as_dgf(self):
        cfg = cfg_for(F_SIDE, 4, 1)
        state = make_state([6.0, 0.5, 0.0, 0.0])
        rng = np.random.default_rng(0)
        assert chernoff_step(state, cfg, rng) == Stop((0,))

    def test_g_side_always_probes_leader(self):
        cfg = cfg_for(G_SIDE, 5, 2)
        state = make_state([0.0, 2.0, -1.0, 0.5, 0.3])
        rng = np.random.default_rng(11)
        for _ in range(50):
            action = chernoff_step(state, cfg, rng)
            assert isinstance(action, Probe)
            assert action.cells[0] == 1
            assert len(set(action.cells)) == 2
            assert all(0 <= c < 5 for c in action.cells)

    def test_f_side_never_probes_leader(self):
        cfg = cfg_for(F_SIDE, 5, 3)
        state = make_state([0.0, 2.0, -1.0, 0.5, 0.3])
        rng = np.random.default_rng(12)
        for _ in range(50):
            action = chernoff_step(state, cfg, rng)
            assert 1 not in action.cells
            assert len(set(action.cells)) == 3

    def test_k_equals_m_is_deterministic(self):
        cfg = cfg_for(F_SIDE, 4, 4)
        state = make_state([0.0, 2.0, -1.0, 0.5])
        action = chernoff_step(state, cfg, np.random.default_rng(5))
        assert action == Probe((1, 3, 0, 2))

    def test_f_side_subset_is_uniform(self):
        cfg = cfg_for(F_SIDE, 5, 1)
        state = make_state([3.0, 0.0, 0.0, 0.0, 0.0])
        rng = np.random.default_rng(2024)
        counts = {c: 0 for c in range(1, 5)}
        n = 4000
        for _ in range(n):
            (cell,) = chernoff_step(state, cfg, rng).cells
            counts[cell] += 1
        # each non-leader should see ~n/4 probes; 4 sigma band
        band = 4 * math.sqrt(n * 0.25 * 0.75)
        for cell, hits in counts.items():
            assert abs(hits - n / 4) < band, (cell, hits)


@settings(max_examples=300)
@given(st.data())
def test_dgfl_with_one_target_matches_dgf(data):
    m = data.draw(st.integers(2, 7))
    k = data.draw(st.integers(1, m))
    model = data.draw(st.sampled_from([F_SIDE, G_SIDE, Bernoulli(0.2, 0.6)]))
    t = data.draw(st.floats(0.5, 9.0))
    cfg = PolicyConfig.for_model(model, m, k, math.exp(-t))
    sums = data.draw(st.lists(
        st.floats(-12.0, 12.0) | st.sampled_from([0.0, 1.0]),
        min_size=m, max_size=m))
    a = dgf_step(make_state(sums), cfg)
    b = dgfl_step(make_state(sums), cfg)
    assert a == b


class TestDgflStep:
    CFG_G = cfg_for(G_SIDE, 5, 1, l=2)   # d_gf/2 = 8 >= d_fg/3
    CFG_F = cfg_for(F_SIDE, 5, 1, l=2)   # d_gf/2 = 1.02 < d_fg/3 = 5.3

    def test_stop_uses_l_gap(self):
        state = make_state([9.0, 7.0, 1.0, 0.0, -2.0])
        action = dgfl_step(state, self.CFG_G)
        assert action == Stop((0, 1))

    def test_g_side_small_k_reinforces_weakest_candidate(self):
        state = make_state([4.0, 3.0, 1.0, 0.0, -2.0])
        # K=1 < L=2: probe the L-th ranked cell
        assert dgfl_step(state, self.CFG_G) == Probe((1,))

    def test_g_side_large_k_probes_top(self):
        cfg = cfg_for(G_SIDE, 5, 3, l=2)
        state = make_state([4.0, 3.0, 1.0, 0.0, -2.0])
        assert dgfl_step(state, cfg) == Probe((0, 1, 2))

    def test_f_side_small_k_hits_best_non_candidates(self):
        state = make_state([4.0, 3.0, 1.0, 0.0, -2.0])
        # K=1 <= M-L: probe rank L+1
        assert dgfl_step(state, self.CFG_F) == Probe((2,))

    def test_f_side_large_k_probes_bottom(self):
        cfg = cfg_for(F_SIDE, 5, 4, l=2)
        state = make_state([4.0, 3.0, 1.0, 0.0, -2.0])
        # K=4 > M-L=3: bottom K cells
        assert dgfl_step(state, cfg) == Probe((1, 2, 3, 4))


class TestSeqDgfl:
    def test_g_side_walkthrough(self):
        cfg = cfg_for(G_SIDE, 3, 1, cost=math.exp(-2.0), l=2)
        assert cfg.multi_regime == "g"
        state = make_state([0.0, 0.0, 0.0])

        assert seq_dgfl_step(state, cfg) == Probe((0,))  # argmax, ties low
        state.s[0] = 2.5
        assert seq_dgfl_step(state, cfg) == Declare((0,), "abnormal")
        state.declare([0], "abnormal")
        state.s[0] = 50.0  # frozen cell must not be chased
        state.s[2] = 0.1
        assert seq_dgfl_step(state, cfg) == Probe((2,))
        state.s[2] = 2.0
        assert seq_dgfl_step(state, cfg) == Declare((2,), "abnormal")
        state.declare([2], "abnormal")
        assert seq_dgfl_step(state, cfg) == Stop((0, 2))

    def test_f_side_walkthrough(self):
        cfg = cfg_for(F_SIDE, 3, 1, cost=math.exp(-2.0), l=2)
        assert cfg.multi_regime == "f"
        state = make_state([0.5, -0.5, 0.0])

        assert seq_dgfl_step(state, cfg) == Probe((1,))  # argmin
        state.s[1] = -2.0
        assert seq_dgfl_step(state, cfg) == Declare((1,), "normal")
        state.declare([1], "normal")
        # one normal found = M - L, survivors win
        assert seq_dgfl_step(state, cfg) == Stop((0, 2))

    def test_requires_single_probe(self):
        cfg = cfg_for(G_SIDE, 3, 2, l=2)
        with pytest.raises(ValueError):
            seq_dgfl_step(make_state([0, 0, 0]), cfg)


class TestUnknownL:
    CFG = cfg_for(Bernoulli(0.1, 0.6), 3, 1, cost=math.exp(-2.0), l=2)

    def test_declares_crossing_cells_and_freezes_them(self):
        state = make_state([2.5, 0.0, 0.0])
        assert unknownl_step(state, self.CFG) == Declare((0,), "abnormal")
        state.declare([0], "abnormal")
        # declared cell stays frozen even though its sum is the maximum
        assert unknownl_step(state, self.CFG) == Probe((1,))

    def test_stop_requires_all_resolved(self):
        state = make_state([2.5, -2.5, 0.5])
        state.declare([0], "abnormal")
        assert unknownl_step(state, self.CFG) == Probe((2,))
        state.s[2] = -2.1
        assert unknownl_step(state, self.CFG) == Stop((0,))

    def test_all_clear_stops_empty(self):
        state = make_state([-2.5, -3.0, -2.01])
        assert unknownl_step(state, self.CFG) == Stop(())

    def test_simultaneous_crossings_declared_together(self):
        state = make_state([2.1, 2.2, 0.0])
        assert unknownl_step(state, self.CFG) == Declare((0, 1), "abnormal")


def test_ml_hypothesis_ties_take_lowest_index():
    assert ml_hypothesis([1.0, 3.0, 3.0]) == 1
    assert ml_hypothesis([0.0, 0.0]) == 0
    assert ml_hypothesis([-5.0, -7.0, -4.0]) == 2


def test_generic_stop_margin():
    assert generic_stop_margin([5.0, 2.0, 3.0], 0) == pytest.approx(2.0)
    assert generic_stop_margin([5.0, 5.0, 1.0], 0) == pytest.approx(0.0)


def test_chernoff_generic_step_samples_cached_mixture():
    hyps = anomaly_hypotheses(3, max_targets=2)
    q_cache = [np.array([0.0, 0.5, 0.5])] * len(hyps)
    rng = np.random.default_rng(99)
    picks = [chernoff_generic_step([1.0] + [0.0] * 5, rng, q_cache)
             for _ in range(600)]
    assert 0 not in picks  # zero-weight action never sampled
    ones = picks.count(1)
    assert 200 < ones < 400  # fair split between the two supported actions


def test_chernoff_generic_step_samples_lp_mixture():
    model = Bernoulli(0.1, 0.6)
    hyps = anomaly_hypotheses(3, max_targets=2)
    kl = hypothesis_action_kl(model, hyps, 3)
    q_cache = [maximin_action_distribution(kl, i)[0] for i in range(len(hyps))]
    rng = np.random.default_rng(1)
    action = chernoff_generic_step([1.0] + [0.0] * 5, rng, q_cache)
    assert action in (1, 2)
