"""Property test: no config file or argv makes ``anomsearch`` raise.

Over JSON config dicts and command lines (wrong types, extreme numbers,
shipped presets with one key set to an extreme, geometries around the
``chernoff_generic`` hypothesis cap, thresholds around the round budget)
``main()`` returns 0 (ran), 2 (config or usage error) or 3 (i/o error),
and never lets an exception through.

Every example runs in-process with ``--workers 1``, so none starts a process
pool, with at most 3 trials and ``--out`` under ``tmp_path``. The hypothesis
cap and the round budget are scaled down (30 sets, 300 rounds) so that the
configs just inside them run in milliseconds; the checks that enforce them
are the shipped code.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from anomsearch import cli, sim
from anomsearch.cli import PRESETS, RunSpec, main

CAP = 30
BUDGET = 300

junk_value = st.one_of(
    st.booleans(), st.text(max_size=3), st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
junk = st.one_of(st.none(), junk_value)
EXTREMES = [0, -1, 2 ** 31, 2 ** 63, 2 ** 64 + 1, 10 ** 30, 10 ** 400, -0.0, 5e-324, 1e-300,
            1e-17, 700.0, 745.2, 1e308, math.inf, -math.inf, math.nan]
extreme = st.sampled_from(EXTREMES)
extreme_int = st.sampled_from([v for v in EXTREMES if isinstance(v, int)])
# A number as JSON writes it: an integer or a float, each half the time.
extreme_number = st.one_of(extreme_int,
                           st.sampled_from([v for v in EXTREMES if isinstance(v, float)]))
number = st.one_of(st.floats(-20.0, 20.0), st.floats(1e-6, 1.0), extreme)

models = st.one_of(
    st.builds(lambda f, g: {"kind": "exponential", "lambda_f": f, "lambda_g": g}, number, number),
    st.builds(lambda f, g, s: {"kind": "gaussian", "mu_f": f, "mu_g": g, "sigma": s},
              number, number, number),
    st.builds(lambda f, g: {"kind": "bernoulli", "p_f": f, "p_g": g}, number, number),
    st.builds(lambda s, f, g: {"kind": "tabulated", "support": s, "pmf_f": f, "pmf_g": g},
              st.lists(number, max_size=3), st.lists(number, max_size=3),
              st.lists(number, max_size=3)),
    junk,
)
# Distinct parameters, so that most of these are informative models.
sane_models = st.one_of(
    st.builds(lambda f, r: {"kind": "exponential", "lambda_f": f, "lambda_g": f * r},
              st.floats(0.1, 5.0), st.floats(1.5, 20.0)),
    st.builds(lambda f, d: {"kind": "gaussian", "mu_f": f, "mu_g": f + d, "sigma": 1.0},
              st.floats(-3.0, 3.0), st.floats(0.5, 3.0)),
    st.builds(lambda f, d: {"kind": "bernoulli", "p_f": f, "p_g": f + d},
              st.floats(0.05, 0.4), st.floats(0.2, 0.55)),
)


def weighted(*strategies):
    """One of ``strategies``, each picked equally often (``st.one_of`` flattens
    nested choices, so repeating a strategy there does not weight it)."""
    return st.sampled_from(strategies).flatmap(lambda s: s)


policy_lists = st.lists(st.sampled_from(sim.POLICY_NAMES), min_size=1, max_size=2, unique=True)

# Each key is left out, well typed (possibly out of range) or junk. "trials"
# is always present and never above 3, so no example falls back to 10 000.
wild_configs = st.fixed_dictionaries(
    {"trials": st.one_of(st.integers(-2, 3), st.floats(0.0, 3.0), junk_value)},
    optional={
        "policies": st.one_of(policy_lists, policy_lists.map(",".join), junk),
        "M": st.one_of(st.integers(-1, 34), extreme, junk),
        "K": st.one_of(st.integers(-1, 5), junk),
        "L": st.one_of(st.integers(-1, 5), junk),
        "model": models,
        "neg_log_c": st.one_of(st.lists(number, min_size=0, max_size=3), number, junk),
        "seed": st.one_of(st.integers(0, 2 ** 70), extreme, junk),
        "priors": st.one_of(st.lists(number, max_size=4), junk),
        "fixed_hypothesis": st.one_of(st.lists(st.integers(-1, 5), max_size=3), junk),
        "true_target_count": st.one_of(st.integers(-1, 4), junk),
        "diagnostics": st.one_of(st.booleans(), junk),
    })


@st.composite
def sane_configs(draw):
    """A well-typed config that fits its policy's geometry, so most run.

    For ``chernoff_generic`` M ranges over both sides of the scaled cap.
    """
    policy = draw(st.sampled_from(sim.POLICY_NAMES))
    entry = sim.POLICIES[policy]
    l = 1 if entry.targets == "one" else draw(st.integers(1 if entry.targets == "up_to" else 2, 4))
    m = draw(st.integers(l + 1, 34 if l == 1 else l + 5))
    k = 1 if entry.one_probe else draw(st.integers(1, min(m, 3)))
    config = {"trials": draw(st.integers(1, 3)), "policies": [policy], "M": m, "K": k, "L": l,
              "model": draw(weighted(sane_models, sane_models, sane_models, models)),
              "neg_log_c": draw(st.lists(st.floats(0.1, 8.0), min_size=1, max_size=3)),
              "seed": draw(st.integers(0, 2 ** 70)), "diagnostics": draw(st.booleans())}
    if entry.targets == "up_to":
        config["true_target_count"] = draw(st.integers(1, l))
        if draw(st.booleans()):
            cells = draw(st.permutations(range(m)))[:config["true_target_count"]]
            config["fixed_hypothesis"] = sorted(cells)
    return config


@st.composite
def preset_extremes(draw):
    """A shipped preset, at most 3 trials, with one key set to a well-typed
    extreme: an integer key to an integer from ``extreme``, a list to
    distinct extremes (integers for ``fixed_hypothesis``), as many as the
    preset's list holds (M for ``priors``), or one model parameter to an
    extreme. Each of the three kinds of key is changed in a third of the
    examples.

    Every other key is valid, so the examples get past the type checks to
    the resolver's casts and the checks after them.
    """
    config = {**PRESETS[draw(st.sampled_from(sorted(PRESETS)))], "trials": draw(st.integers(1, 3))}
    key = draw(weighted(
        st.sampled_from(["M", "K", "L", "seed", "true_target_count", "fixed_hypothesis"]),
        st.sampled_from(["neg_log_c", "priors"]), st.just("model")))
    if key == "model":
        model = dict(config["model"])
        model[draw(st.sampled_from(sorted(model.keys() - {"kind"})))] = draw(extreme_number)
        config["model"] = model
    elif key in ("neg_log_c", "priors", "fixed_hypothesis"):
        size = len(config.get(key) or range(config["M"]))
        entries = extreme_int if key == "fixed_hypothesis" else extreme_number
        config[key] = draw(st.lists(entries, min_size=size, max_size=size, unique=True))
    else:
        config[key] = draw(extreme_int)
    return config


flag_values = st.one_of(st.integers(1, 12).map(str), extreme.map(str), st.text(max_size=3))
flags = st.one_of(st.just([]), st.lists(st.one_of(
    st.tuples(st.sampled_from(["--M", "--K", "--L", "--seed", "--lambda-f", "--lambda-g"]),
              flag_values),
    st.tuples(st.just("--trials"), st.sampled_from(["-1", "0", "1", "2", "3", "x"])),
    st.tuples(st.just("--policy"), st.one_of(policy_lists.map(",".join), st.text(max_size=3))),
    st.tuples(st.just("--model"), st.sampled_from(["exponential", "gaussian", "bernoulli", "x"]),
              st.just("--lambda-f"), number.map(str), st.just("--lambda-g"), number.map(str)),
    st.tuples(st.just("--neg-log-c"), st.one_of(
        st.lists(number, min_size=1, max_size=3).map(lambda v: ",".join(map(str, v))),
        st.text(max_size=4))),
    st.tuples(st.just("--preset"), st.sampled_from(sorted(PRESETS))),
    st.just(("--diagnostics",)),
), min_size=1, max_size=3))


def _near_budget(config: dict, factor: float) -> dict:
    """``config`` with its grid moved to ``factor`` times the round budget.

    The estimated rounds grow linearly in -log c, at the slope the resolver
    reads from ``sim._benchmark``. Configs that do not resolve at -log c = 1
    come back unchanged.
    """
    try:
        spec = cli.resolve_config({**config, "neg_log_c": [1.0]})
    except cli.ConfigError:
        return config
    per_unit = max(sim._benchmark(spec.experiment_config(p)).per_unit for p in spec.policies)
    return {**config, "neg_log_c": [factor * BUDGET / per_unit]}


@pytest.fixture
def scaled_limits(monkeypatch):
    experiment_config = RunSpec.experiment_config
    monkeypatch.setattr(RunSpec, "experiment_config", lambda self, policy: dataclasses.replace(
        experiment_config(self, policy), max_rounds=BUDGET))
    monkeypatch.setattr(sim, "_MAX_HYPOTHESES", CAP)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(config=weighted(sane_configs(), sane_configs(), sane_configs(), wild_configs,
                       preset_extremes(), preset_extremes(), preset_extremes(), preset_extremes(),
                       st.one_of(st.none(), st.lists(st.integers(), max_size=1))),
       flags=flags, budget_factor=st.one_of(st.none(), st.floats(0.5, 2.0)),
       out=st.sampled_from(["out", "blocker/out"]))
# A geometry at the scaled hypothesis cap (5 + 10 + 10 + 5 sets) and one past it.
@example(config={"trials": 2, "policies": ["chernoff_generic"], "M": 5, "L": 4,
                 "model": {"kind": "bernoulli", "p_f": 0.1, "p_g": 0.6}},
         flags=[], budget_factor=0.9, out="out")
@example(config={"trials": 2, "policies": ["chernoff_generic"], "M": 31, "L": 1},
         flags=[], budget_factor=None, out="out")
# Once a RuntimeError from the maximin LP: D(f||g) = 2.1e15 is past the
# largest constraint entry HiGHS takes as finite. The closed form runs it.
@example(config=None, flags=[
    ("--policy", "chernoff_generic"), ("--M", "2"), ("--K", "1"), ("--L", "1"),
    ("--model", "exponential", "--lambda-f", "1e-06", "--lambda-g", "2147483648"),
    ("--neg-log-c", "1"), ("--trials", "1")], budget_factor=None, out="out")
# Once a MemoryError or worse: 2^31 cells passed every check.
@example(config={"trials": 2, "M": 2 ** 31}, flags=[], budget_factor=None, out="out")
# Once an OverflowError: an integer grid point that no float holds.
@example(config={"trials": 2, "neg_log_c": [10 ** 400]}, flags=[], budget_factor=None,
         out="out")
# Just over the round budget, where the estimate rejects the run.
@example(config={"trials": 3, "policies": ["dgf", "unknown_l"], "M": 3, "L": 1},
         flags=[], budget_factor=1.01, out="out")
def test_main_exits_0_2_or_3_and_never_raises(tmp_path, capsys, scaled_limits,
                                               config, flags, budget_factor, out):
    (tmp_path / "blocker").write_text("a file, so --out blocker/out cannot be made")
    argv = []
    if config is not None:
        if isinstance(config, dict) and budget_factor is not None:
            config = _near_budget(config, budget_factor)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv.append(str(path))
    for flag in flags:
        argv.extend(flag)
    if config is None and "--trials" not in argv:
        argv.extend(["--trials", "2"])
    code = main([*argv, "--workers", "1", "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    event(f"exit {code}" + (" with truncations" if code == 0 and "round budget" in err else ""))
    assert code in (0, 2, 3)
    assert "Traceback" not in err


@pytest.mark.parametrize("budget_factor, expected", [(0.9, 0), (1.01, 2)])
def test_round_estimate_checks_the_configs_own_budget(tmp_path, capsys, scaled_limits,
                                                       budget_factor, expected):
    # The estimate must compare with the built config's max_rounds, not a
    # default: just past the scaled budget the run is refused before it starts.
    config = _near_budget({"trials": 3, "policies": ["dgf", "unknown_l"], "M": 3, "L": 1},
                          budget_factor)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main([str(path), "--workers", "1", "--out", str(tmp_path / "out")]) == expected
    assert ("budget of 300" in capsys.readouterr().err) == (expected == 2)


@pytest.mark.parametrize("policy, rounds", [("chernoff_generic", "736"), ("unknown_l", "1.01e+03")])
def test_round_estimate_counts_rounds_to_stop(tmp_path, capsys, scaled_limits, policy, rounds):
    # table1's model with one true target: detecting it takes about 270
    # rounds, inside the budget, but every trial also clears the two normal
    # cells, and with max_rounds = 300 all of them truncated at mean_tau 300.
    config = {**PRESETS["table1_example"], "policies": [policy], "neg_log_c": [202.7],
              "trials": 3}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main([str(path), "--workers", "1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: policy {policy!r}: at -log c = 202.7 a trial needs about {rounds} "
        f"rounds, more than the budget of 300; use a larger cost or a more informative model\n")
