"""The policies' configuration, their guards and the ML-set helpers.

Each step rule's claims (its stop test, its probe window in each regime, its
declarations and its draws) are entries of the claim tables in
``tests/test_lockstep.py``, each run on the scalar rule and on the engine's.
"""

import math
import re

import pytest

from anomsearch import Bernoulli, Exponential, Gaussian, rate_multi
from anomsearch.policies import (
    PolicyConfig,
    dgf_step,
    generic_stop_margin,
    ml_hypothesis,
    seq_dgfl_step,
)
from anomsearch.state import SearchState

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
    def test_rejects_multi_target_config(self):
        cfg = cfg_for(F_SIDE, 4, 1, l=2)
        with pytest.raises(ValueError):
            dgf_step(make_state([0, 0, 0, 0]), cfg)


class TestSeqDgfl:
    def test_requires_single_probe(self):
        cfg = cfg_for(G_SIDE, 3, 2, l=2)
        with pytest.raises(ValueError):
            seq_dgfl_step(make_state([0, 0, 0]), cfg)


def test_ml_hypothesis_ties_take_lowest_index():
    assert ml_hypothesis([1.0, 3.0, 3.0]) == 1
    assert ml_hypothesis([0.0, 0.0]) == 0
    assert ml_hypothesis([-5.0, -7.0, -4.0]) == 2


def test_generic_stop_margin():
    assert generic_stop_margin([5.0, 2.0, 3.0], 0) == pytest.approx(2.0)
    assert generic_stop_margin([5.0, 5.0, 1.0], 0) == pytest.approx(0.0)
