import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from anomsearch import (
    Bernoulli,
    Exponential,
    Gaussian,
    ModelError,
    Tabulated,
    model_from_dict,
    model_to_dict,
)


def test_exponential_divergences_match_closed_form():
    m = Exponential(0.5, 10.0)
    d_gf, d_fg = m.kl_divergences()
    assert d_gf == pytest.approx(math.log(20.0) + 0.05 - 1.0, rel=1e-15)
    assert d_fg == pytest.approx(math.log(0.05) + 20.0 - 1.0, rel=1e-15)


def test_exponential_llr_is_linear_in_y():
    m = Exponential(2.0, 10.0)
    # log(g/f) = log(10/2) - 8y
    assert m.llr(0.0) == pytest.approx(math.log(5.0))
    assert m.llr(1.0) == pytest.approx(math.log(5.0) - 8.0)


def test_gaussian_divergences_are_symmetric():
    m = Gaussian(0.0, 1.0, 1.0)
    d_gf, d_fg = m.kl_divergences()
    assert d_gf == pytest.approx(0.5)
    assert d_fg == pytest.approx(0.5)


def test_bernoulli_divergences_exact_sum():
    m = Bernoulli(0.2, 0.8)
    d_gf, d_fg = m.kl_divergences()
    expect = 0.8 * math.log(4.0) + 0.2 * math.log(0.25)
    assert d_gf == pytest.approx(expect, abs=1e-15)
    assert d_fg == pytest.approx(expect, abs=1e-15)  # symmetric parameters


def test_bernoulli_llr_two_point_support():
    m = Bernoulli(0.1, 0.6)
    assert m.llr(1.0) == pytest.approx(math.log(6.0))
    assert m.llr(0.0) == pytest.approx(math.log(0.4 / 0.9))
    with pytest.raises(ValueError, match="^bernoulli observation must be 0 or 1, got 0.5$"):
        m.llr(0.5)


@pytest.mark.parametrize("bad", [
    lambda: Exponential(1.0, 1.0),
    lambda: Gaussian(0.3, 0.3, 1.0),
    lambda: Bernoulli(0.5, 0.5),
])
def test_identical_distributions_rejected(bad):
    with pytest.raises(ModelError):
        bad()


@pytest.mark.parametrize("lambda_f, lambda_g", [(1e-300, 1e300), (1e300, 1e-300),
                                                 (5e-324, 1.0), (1e308, 1e-10)])
def test_exponential_ratio_overflow_names_both_rates(lambda_f, lambda_g):
    with pytest.raises(ModelError, match="lambda_f .* and lambda_g .*: their ratio overflows"):
        Exponential(lambda_f, lambda_g)


def test_invalid_parameters_rejected():
    with pytest.raises(ModelError):
        Exponential(-1.0, 2.0)
    with pytest.raises(ModelError):
        Gaussian(0.0, 1.0, 0.0)
    # 1e-200 > 0, but its square is 0.0, a division by zero in the LLR.
    with pytest.raises(ModelError, match="^gaussian sigma must be positive, with a square "
                                         "above 0, got 1e-200$"):
        Gaussian(0.0, 1.0, 1e-200)
    with pytest.raises(ModelError):
        Bernoulli(0.0, 0.5)
    with pytest.raises(ModelError):
        Bernoulli(0.2, 1.0)


@pytest.mark.parametrize("spec", [
    {"kind": "gaussian", "mu_f": 0.0, "mu_g": 1e200},  # (mu_g - mu_f) ** 2 overflows
    {"kind": "gaussian", "mu_f": 1e160, "mu_g": 1e160 + 1e145},  # finite KL, infinite LLR
    {"kind": "gaussian", "mu_f": 0.0, "mu_g": 1.0, "sigma": 1e-200},  # sigma ** 2 underflows
    {"kind": "exponential", "lambda_f": 1e-300, "lambda_g": 1e300},  # infinite KL
    {"kind": "exponential", "lambda_f": 1e300, "lambda_g": 1e-300},  # log(0)
    {"kind": "bernoulli", "p_f": 5e-324, "p_g": 0.5},  # infinite KL
], ids=lambda spec: spec["kind"])
def test_extreme_parameters_raise_model_error(spec):
    with pytest.raises(ModelError):
        model_from_dict(spec)
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    cls = {"gaussian": Gaussian, "exponential": Exponential, "bernoulli": Bernoulli}[spec["kind"]]
    with pytest.raises(ModelError):
        cls(**kwargs)


def test_tabulated_validates_pmfs():
    with pytest.raises(ModelError):
        Tabulated(support=(0.0, 1.0), pmf_f=(0.7, 0.2), pmf_g=(0.5, 0.5))
    with pytest.raises(ModelError):
        Tabulated(support=(0.0, 1.0), pmf_f=(0.5, 0.5), pmf_g=(1.0, 0.0))
    with pytest.raises(ModelError, match="tabulated support is empty$"):
        Tabulated(support=(), pmf_f=(), pmf_g=())
    with pytest.raises(ModelError, match="tabulated support values must be distinct$"):
        Tabulated(support=(0.0, 1.0, 0.0), pmf_f=(0.5, 0.3, 0.2), pmf_g=(0.2, 0.3, 0.5))
    with pytest.raises(ModelError, match="pmf lengths must match the support$"):
        Tabulated(support=(0.0, 1.0), pmf_f=(0.5, 0.5), pmf_g=(0.2, 0.3, 0.5))


def test_tabulated_matches_bernoulli():
    tab = Tabulated(support=(0.0, 1.0), pmf_f=(0.9, 0.1), pmf_g=(0.4, 0.6))
    bern = Bernoulli(0.1, 0.6)
    assert tab.kl_divergences() == pytest.approx(bern.kl_divergences(), rel=1e-12)
    assert tab.llr(1.0) == pytest.approx(bern.llr(1.0), rel=1e-12)
    assert tab.llr(0.0) == pytest.approx(bern.llr(0.0), rel=1e-12)
    with pytest.raises(ValueError, match="^observation 2.0 is outside the tabulated support$"):
        tab.llr(2.0)



def _random_pmf(rng, size):
    pmf = rng.random(size) + 0.05
    return tuple(pmf / pmf.sum())


@pytest.mark.parametrize("model", [
    Tabulated((0.0, 1.0), (0.9, 0.1), (0.4, 0.6)),
    # Breakpoints 0.5 and 1.0 are shared by both pmfs.
    Tabulated((0.0, 1.0, 2.0, 3.0), (0.25, 0.25, 0.25, 0.25), (0.125, 0.375, 0.375, 0.125)),
    Tabulated(tuple(range(40)), _random_pmf(np.random.default_rng(1), 40),
              _random_pmf(np.random.default_rng(2), 40)),
], ids=["two", "shared-breakpoints", "forty"])
def test_tabulated_one_search_matches_two(model):
    # One search over the union of breakpoints gives each draw the support
    # position that searching its own pmf's breakpoints gives.
    cum_f, cum_g = model._cum_f, model._cum_g
    base = np.concatenate([np.random.default_rng(0).random(4000), cum_f, cum_g,
                           np.nextafter(cum_f, 0.0), np.nextafter(cum_g, 0.0),
                           [0.0, 1.0 - 2.0**-53]])
    base = base[base < 1.0]
    for abnormal in (np.zeros(base.size, bool), np.ones(base.size, bool),
                     np.random.default_rng(3).random(base.size) < 0.5):
        two = np.where(abnormal, np.searchsorted(cum_g, base, side="right"),
                       np.searchsorted(cum_f, base, side="right"))
        assert model._outcome(abnormal, base).tolist() == two.tolist()


# Each model's exact dict form: kind, then its fields in declaration order,
# tuples as lists.
DICT_FORMS = {
    Exponential(0.5, 10.0): {"kind": "exponential", "lambda_f": 0.5, "lambda_g": 10.0},
    Gaussian(-0.5, 0.75, 2.0): {"kind": "gaussian", "mu_f": -0.5, "mu_g": 0.75, "sigma": 2.0},
    Bernoulli(0.15, 0.55): {"kind": "bernoulli", "p_f": 0.15, "p_g": 0.55},
    Tabulated(support=(1.0, 2.0, 5.0), pmf_f=(0.6, 0.3, 0.1), pmf_g=(0.1, 0.3, 0.6)):
        {"kind": "tabulated", "support": [1.0, 2.0, 5.0], "pmf_f": [0.6, 0.3, 0.1],
         "pmf_g": [0.1, 0.3, 0.6]},
    Gaussian(-0.5, 0.75): {"kind": "gaussian", "mu_f": -0.5, "mu_g": 0.75, "sigma": 1.0},
}


@pytest.mark.parametrize("model", list(DICT_FORMS))
def test_dict_round_trip(model):
    spec = model_to_dict(model)
    assert spec == DICT_FORMS[model]
    assert list(spec) == list(DICT_FORMS[model])
    assert all(type(spec[key]) is type(value) for key, value in DICT_FORMS[model].items())
    clone = model_from_dict(spec)
    assert clone == model
    assert clone.kl_divergences() == model.kl_divergences()


def test_model_from_dict_rejects_garbage():
    with pytest.raises(ModelError):
        model_from_dict({"kind": "weibull", "a": 1})
    with pytest.raises(ModelError):
        model_from_dict({"lambda_f": 1.0})
    with pytest.raises(ModelError):
        model_from_dict({"kind": "exponential", "lambda_f": 1.0})  # missing lambda_g
    with pytest.raises(ModelError, match="^'tabulated' model support must be a list of numbers, "
                                         "got 5$"):
        model_from_dict({"kind": "tabulated", "support": 5, "pmf_f": [1.0], "pmf_g": [1.0]})
    # Integers that no float holds, named by their key.
    for spec, key in (({"kind": "exponential", "lambda_f": 10 ** 400, "lambda_g": 1}, "lambda_f"),
                      ({"kind": "gaussian", "mu_f": 0, "mu_g": 1, "sigma": 10 ** 400}, "sigma"),
                      ({"kind": "tabulated", "support": [0, 1], "pmf_f": [0.5, 0.5],
                        "pmf_g": [0.2, -10 ** 400]}, "pmf_g")):
        with pytest.raises(ModelError, match=f"^'{spec['kind']}' model {key} holds an integer "
                                             f"too large for a float$"):
            model_from_dict(spec)
    # Parameters that are not numbers (real, not bool) or, for the tuple
    # fields, lists of them, named by their key.
    tabulated = {"kind": "tabulated", "support": [0, 1], "pmf_f": [0.5, 0.5], "pmf_g": [0.1, 0.9]}
    for spec, key in ((dict(tabulated, support="01"), "support"),
                      (dict(tabulated, support=[0, "1"]), "support"),
                      (dict(tabulated, support=[0, True]), "support"),
                      (dict(tabulated, pmf_f=["0.5", 0.5]), "pmf_f"),
                      ({"kind": "bernoulli", "p_f": "0.1", "p_g": 0.9}, "p_f"),
                      ({"kind": "gaussian", "mu_f": 0, "mu_g": 1, "sigma": None}, "sigma"),
                      ({"kind": "exponential", "lambda_f": True, "lambda_g": 10.0}, "lambda_f"),
                      ({"kind": "bernoulli", "p_f": [0.1], "p_g": 0.9}, "p_f"),
                      ({"kind": "exponential", "lambda_f": [1, 2], "lambda_g": 10.0}, "lambda_f"),
                      ({"kind": "gaussian", "mu_f": [0], "mu_g": 1}, "mu_f")):
        with pytest.raises(ModelError, match=f"^'{spec['kind']}' model {key} must be a "
                                             f"(number|list of numbers), got "):
            model_from_dict(spec)


def test_constructors_apply_the_number_rule():
    # Built directly, as from a dict: the message names the field.
    for build, message in (
            (lambda: Exponential([1], 2), "'exponential' model lambda_f must be a number, got [1]"),
            (lambda: Bernoulli("0.1", 0.9), "'bernoulli' model p_f must be a number, got '0.1'"),
            (lambda: Gaussian(0.0, 1.0, True), "'gaussian' model sigma must be a number, got True"),
            (lambda: Exponential(1.0, 10 ** 400),
             "'exponential' model lambda_g holds an integer too large for a float"),
            (lambda: Tabulated(np.zeros((2, 1)), (0.5, 0.5), (0.1, 0.9)),
             "'tabulated' model support must be a list of numbers, got array"),
            (lambda: Tabulated((0.0, 1.0), (0.5, 0.5), 0.9),
             "'tabulated' model pmf_g must be a list of numbers, got 0.9")):
        with pytest.raises(ModelError) as info:
            build()
        assert str(info.value).startswith(message)
    # NumPy scalars are numbers, and 1-D arrays lists of them.
    assert Exponential(np.int64(1), 2.0).kl_divergences() == Exponential(1.0, 2.0).kl_divergences()
    assert Gaussian(np.float64(0), 1.0) == Gaussian(0.0, 1.0)
    assert Tabulated(np.array([0.0, 1.0]), np.array([0.5, 0.5]), [0.1, np.float64(0.9)]) == \
        Tabulated((0.0, 1.0), (0.5, 0.5), (0.1, 0.9))


def draws(model, abnormal, seed, size):
    base = model.base_variate(np.random.default_rng(seed), out=np.empty(size))
    return model.observations(model.law(np.full(size, abnormal)), base)


def test_sampling_is_reproducible():
    m = Exponential(0.5, 10.0)
    a = draws(m, True, 7, 100)
    b = draws(m, True, 7, 100)
    assert np.array_equal(a, b)
    # abnormal draws come from the faster rate, so they sit well below
    assert a.mean() < draws(m, False, 7, 100).mean()


def test_bernoulli_samples_are_binary():
    m = Bernoulli(0.1, 0.6)
    ys = draws(m, True, 3, 500)
    assert set(np.unique(ys)) <= {0.0, 1.0}
    assert 0.4 < ys.mean() < 0.8  # around p_g


@pytest.mark.parametrize("model", [
    Exponential(0.5, 10.0),
    Gaussian(0.0, 1.5, 0.7),
    Bernoulli(0.1, 0.6),
    Tabulated((0.0, 1.0, 2.5), (0.5, 0.3, 0.2), (0.1, 0.3, 0.6)),
], ids=lambda m: m.kind)
def test_batched_draws_equal_scalar_draws(model):
    # base_variate, law and observations must reproduce sample bit for bit,
    # including the generator state left behind, and the engine's step must
    # reproduce llr: the law of every cell of every row, as a chunk maps its
    # truth mask, then the probes' laws and their LLRs.
    abnormal = np.random.default_rng(1).random((20, 10)) < 0.5
    probes = np.random.default_rng(2).permutation(200)
    scalar_rng, batched_rng = np.random.default_rng(11), np.random.default_rng(11)
    ys = [model.sample(bool(a), scalar_rng) for a in abnormal.ravel()[probes]]
    base = model.base_variate(batched_rng, out=np.empty(200))
    law = model.law(abnormal).ravel()[probes]
    assert model.observations(law, base).tolist() == ys
    assert model.llrs(law, base).tolist() == [model.llr(v) for v in ys]
    assert scalar_rng.random() == batched_rng.random()
    # The same at the ends of base_range, the most extreme base variates.
    ends = np.array(model.base_range)
    for a in (False, True):
        law = model.law(np.full(2, a))
        ys = model.observations(law, ends).tolist()
        assert model.llrs(law, ends).tolist() == [model.llr(v) for v in ys]


@given(
    lf=st.floats(0.1, 5.0),
    ratio=st.floats(1.2, 20.0),
)
def test_exponential_swap_symmetry(lf, ratio):
    lg = lf * ratio
    d_gf, d_fg = Exponential(lf, lg).kl_divergences()
    d_gf_swapped, d_fg_swapped = Exponential(lg, lf).kl_divergences()
    assert d_gf == pytest.approx(d_fg_swapped, rel=1e-12)
    assert d_fg == pytest.approx(d_gf_swapped, rel=1e-12)
    assert d_gf > 0 and d_fg > 0


@given(
    pf=st.floats(0.05, 0.45),
    pg=st.floats(0.55, 0.95),
    y=st.sampled_from([0.0, 1.0]),
)
def test_bernoulli_llr_consistent_with_pmf(pf, pg, y):
    m = Bernoulli(pf, pg)
    p_g = pg if y == 1.0 else 1.0 - pg
    p_f = pf if y == 1.0 else 1.0 - pf
    assert m.llr(y) == pytest.approx(math.log(p_g / p_f), rel=1e-12)


PARAMETERS = {
    "exponential": ("lambda_f", "lambda_g"),
    "gaussian": ("mu_f", "mu_g", "sigma"),
    "bernoulli": ("p_f", "p_g"),
    "tabulated": ("support", "pmf_f", "pmf_g"),
}
# The extreme base variates NumPy's ziggurat samplers can return: a
# standard exponential lies in [0, 44.5) and a standard normal in
# (-13.7, 13.7); uniforms lie in [0, 1).
EXTREME_BASE = {"exponential": (0.0, 44.5), "gaussian": (-13.7, 13.7),
                "bernoulli": (0.0, 1.0 - 2.0**-53), "tabulated": (0.0, 1.0 - 2.0**-53)}

NUMBERS = st.one_of(
    st.floats(),
    st.floats(-10.0, 10.0),
    st.floats(5e-324, 1e-306),
    st.floats(1e306, 1.7e308),
)
VALUES = st.one_of(
    NUMBERS,
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.floats(), max_size=4),
    st.lists(st.floats(0.0, 1.0), max_size=4),
)


@st.composite
def pmfs(draw, size):
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=size, max_size=size))
    return [w / math.fsum(weights) for w in weights]


@settings(deadline=None)
@given(data=st.data(), size=st.integers(2, 39))
def test_tabulated_bins_are_running_sums_ending_at_one(data, size):
    # Inverse-cdf bins: the running Python sum of each pmf but its last
    # entry, then 1.0. The engine and the lockstep references read the same
    # bins, so only this pins them.
    pmf_f, pmf_g = data.draw(pmfs(size)), data.draw(pmfs(size))
    try:
        model = Tabulated(tuple(range(size)), pmf_f, pmf_g)
    except ModelError:  # pmfs too close to tell apart
        reject()
    for pmf, cum in ((pmf_f, model._cum_f), (pmf_g, model._cum_g)):
        total, expected = 0.0, []
        for p in pmf[:-1]:
            total += p
            expected.append(total)
        assert cum.tolist() == expected + [1.0]


@st.composite
def model_specs(draw):
    kind = draw(st.sampled_from([*PARAMETERS, "weibull", 3, None]))
    if kind == "tabulated" and draw(st.booleans()):
        size = draw(st.integers(1, 4))
        return {"kind": kind,
                "support": draw(st.lists(st.floats(allow_nan=False), min_size=size,
                                         max_size=size, unique=True)),
                "pmf_f": draw(pmfs(size)), "pmf_g": draw(pmfs(size))}
    spec = {"kind": kind}
    for name in PARAMETERS.get(kind, ("a",)):
        if draw(st.integers(0, 9)):
            spec[name] = draw(NUMBERS if draw(st.integers(0, 3)) else VALUES)
    if not draw(st.integers(0, 9)):
        spec["extra"] = draw(VALUES)
    return spec


@settings(max_examples=400, deadline=None)
@given(spec=model_specs())
# An observation overflows at the tail of the base draws: 44.5 / 1e-308.
@example(spec={"kind": "exponential", "lambda_f": 1e-308, "lambda_g": 1.0})
# An infinite support value is an observation no results file can carry.
@example(spec={"kind": "tabulated", "support": [0.0, math.inf],
               "pmf_f": [0.5, 0.5], "pmf_g": [0.2, 0.8]})
def test_any_spec_builds_a_model_or_raises_model_error(spec):
    try:
        model = model_from_dict(spec)
    except ModelError:
        return
    d_gf, d_fg = model.kl_divergences()
    assert math.isfinite(d_gf) and math.isfinite(d_fg)
    # Finite LLRs on the model's own draws, the most extreme ones included.
    base = np.concatenate([model.base_variate(np.random.default_rng(0), out=np.empty(64)),
                           EXTREME_BASE[model.kind]])
    for abnormal in (False, True):
        law = model.law(np.full(base.size, abnormal))
        y, llr = model.observations(law, base), model.llrs(law, base)
        assert np.isfinite(y).all() and np.isfinite(llr).all(), (abnormal, y, llr)
        scalar = model.sample(abnormal, np.random.default_rng(1))
        assert math.isfinite(model.llr(scalar))
