"""The stream contract, read through ``stream.ChunkStream`` itself.

A chunk's stream hands each round the policy draws and base variates of
its live rows. These tests build a ``ChunkStream`` directly, for draw
recipes of picks that Lemire's method rejects (b = 2^31 + 1 rejects about
half the time), of one uniform drawn ahead with a uniform base variate, and
of none, and hold every round's draws to scalar ``Generator`` calls on each
trial's ``default_rng([seed, t])`` after its truth draw, while rows drop out.
"""

import numpy as np
import pytest

from anomsearch import Bernoulli, ExperimentConfig, Exponential, Gaussian
from anomsearch import stream as random_stream

SEED, TRIALS, ROUNDS = 12_345, 30, 70
MODELS = (Exponential(0.5, 10.0), Gaussian(0.0, 1.0, 1.0), Bernoulli(0.2, 0.8))
RECIPES = ((), (np.random.Generator.random,),
           *((b,) for b in (4, 5, 2**31 + 1, 2**32 - 1)),
           *((b, b - 1) for b in (4, 5, 2**31 + 1, 2**32 - 1)))


def scalar_draw(rng, draw):
    return float(rng.integers(draw) if isinstance(draw, int) else draw(rng))


def recipe_id(recipe):
    return "-".join(str(draw) if isinstance(draw, int) else draw.__name__
                    for draw in recipe) or "none"


@pytest.mark.parametrize("recipe", RECIPES, ids=recipe_id)
def test_rounds_equal_scalar_draws_while_rows_drop_out(recipe):
    # 70 rounds run past two blocks of _BLOCK_ROUNDS; one row drops out
    # every third round, from a different place each time.
    assert ROUNDS > 2 * random_stream._BLOCK_ROUNDS
    # The picks are the reader's own, not its scalar fallback.
    assert random_stream._reader_verified()
    for model in MODELS:
        for k in (1, 2):
            check_rounds(recipe, model, k)


def check_rounds(recipe, model, k):
    cfg = ExperimentConfig(num_cells=5, probes_per_round=k, policy="dgf", model=model,
                           neg_log_c=(1.0,), trials=TRIALS, seed=SEED)
    chunk = random_stream.ChunkStream(cfg, range(TRIALS), recipe)
    refs = [np.random.default_rng([SEED, t]) for t in range(TRIALS)]
    # The single-target truth draw is one uniform per trial.
    truths = np.cumsum(cfg.priors).searchsorted([ref.random() for ref in refs], side="right")
    assert chunk.truth.argmax(axis=1).tolist() == truths.tolist()
    index, at, d = np.arange(TRIALS), chunk.places(TRIALS), len(recipe)
    assert (at is not None) == all(draw is model.base_variate for draw in recipe)
    for n in range(ROUNDS):
        drawn, base = chunk.round(n, index, at)
        want = np.array([[scalar_draw(refs[t], draw) for draw in recipe]
                         + [scalar_draw(refs[t], model.base_variate) for _ in range(k)]
                         for t in index.tolist()])
        assert base.shape == (index.size, k)
        assert np.array_equal(base, want[:, d:])
        if d:
            assert np.array_equal(drawn, want[:, :d])
        else:
            assert drawn is None or drawn.size == 0
        if n % 3 == 2:
            gone = n % index.size
            index = np.delete(index, gone)
            if at is not None:
                at = np.delete(at, gone, axis=0)
