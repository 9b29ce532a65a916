"""Trial generators: ``stream._trial_generators`` builds ``default_rng([seed, t])`` bit for bit.

The engine hashes a chunk's seeds in one vectorised pass of NumPy's
SeedSequence instead of calling ``default_rng`` once per trial. These tests
hold it to ``SeedSequence`` and ``default_rng`` themselves, check that a
disagreeing hash falls back to ``default_rng``, keep it the only place
in the package that builds a trial's generator, and keep ``sim`` from
drawing anything itself.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from anomsearch import Exponential, ExperimentConfig, run_experiment, sim, stream

SRC = Path(sim.__file__).resolve().parent


def reference_state(seed, t):
    return np.random.default_rng([seed, t]).bit_generator.state


# Seeds up to 2^128 reach entropy beyond SeedSequence's pool of four words
# (a seed of 2^96 or more); trial indices from 2^32 on take the fallback.
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**128 - 1), t=st.integers(0, 2**33 - 1))
@example(seed=0, t=0)
@example(seed=2**64 + 1, t=2**32 - 2)
@example(seed=2**96, t=5)
@example(seed=2**32, t=2**32)
def test_generators_equal_default_rng(seed, t):
    trials = range(t, t + stream._MIN_HASHED)
    words = stream._seed_words(seed, range(t, min(trials.stop, 2**32)))
    for row, trial in zip(words, trials):
        np.testing.assert_array_equal(
            row, np.random.SeedSequence([seed, trial]).generate_state(4, np.uint64))
    generators = stream._trial_generators(seed, trials)
    assert [g.bit_generator.state for g in generators] == [
        reference_state(seed, trial) for trial in trials]


def test_streams_equal_default_rng():
    for g, t in zip(stream._trial_generators(271_828, range(1000, 1064)), range(1000, 1064)):
        reference = np.random.default_rng([271_828, t])
        np.testing.assert_array_equal(g.standard_exponential(100),
                                      reference.standard_exponential(100))
        np.testing.assert_array_equal(g.integers(7, size=50), reference.integers(7, size=50))


def test_disagreeing_hash_falls_back_to_default_rng(monkeypatch):
    config = ExperimentConfig(num_cells=4, probes_per_round=1, policy="chernoff",
                              model=Exponential(0.5, 10.0), neg_log_c=(1.0, 3.0),
                              trials=60, seed=9)
    expected = run_experiment(config)
    seed_words, hashed = stream._seed_words, []

    def wrong_words(seed, trials):
        hashed.append(trials)
        return seed_words(seed + 1, trials)

    monkeypatch.setattr(stream, "_seed_words", wrong_words)
    monkeypatch.setattr(stream, "_seeding_verified", None)
    trials = range(2 * stream._MIN_HASHED)
    generators = stream._trial_generators(5, trials)
    assert stream._seeding_verified is False
    assert hashed  # the self-check read the wrong words
    assert [g.bit_generator.state for g in generators] == [reference_state(5, t) for t in trials]
    assert run_experiment(config) == expected


def test_only_trial_generators_builds_generators():
    # A second constructor of trial generators would escape the self-check.
    builders = {"default_rng", "Generator", "PCG64", "SeedSequence"}
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_trial_generators"
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in builders:
                    calls.append((f"{path.name}:{node.lineno}", name, id(node) in inside))
    assert [call for call in calls if not call[2]] == []
    assert {name for _, name, _ in calls} >= {"default_rng", "PCG64"}


def test_sim_reads_no_randomness_itself():
    # The engine reads every draw through stream; a draw in sim would escape
    # stream's contract and self-checks. A recipe entry such as
    # ``np.random.Generator.random`` names a method without calling it.
    readers = {"integers", "random", "random_raw", "standard_exponential", "standard_normal",
               "base_variate", "default_rng"}
    tree = ast.parse((SRC / "sim.py").read_text(encoding="utf-8"))
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in readers:
                calls.append(f"sim.py:{node.lineno} {name}")
    assert calls == []
