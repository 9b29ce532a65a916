"""Picks and uniforms: ``stream._Picks`` reads ``Generator.integers(b)`` and
``Generator.random()`` from raw PCG64 words.

The engine makes every ``integers`` draw (the subset truth draw's
Fisher-Yates picks and ``chernoff``'s subset picks) and the single-target
truth draw's uniform through one reader per chunk, which keeps each trial's
cached half word itself. These tests hold the reader to scalar
``Generator.integers`` and ``Generator.random`` under any interleaving with
each other and the models' base variates, check that a disagreeing reader
falls back to those scalar calls, and check that the engine's picks and
truth uniforms do go through the reader.
"""

import dataclasses
from typing import get_args
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from anomsearch import Bernoulli, ExperimentConfig, Exponential, run_experiment, sim
from anomsearch import stream as random_stream
from anomsearch.models import ObservationModel

VARIATES = list(dict.fromkeys(cls.base_variate for cls in get_args(ObservationModel)))

bounds = st.one_of(
    st.sampled_from([1, 5, 9_999, 2**31 + 1, 2**32 - 1]),
    st.integers(0, 31).map(lambda k: 2**k),
    st.integers(1, 2**32 - 1),
)
# One step of a trial set's stream: ("pick", b, which trials pick),
# ("uniform", None, which trials draw one) or ("variate", base variate,
# which trials draw one).
steps = st.one_of(
    st.tuples(st.just("pick"), bounds, st.lists(st.booleans(), min_size=4, max_size=4)),
    st.tuples(st.just("uniform"), st.none(), st.lists(st.booleans(), min_size=4, max_size=4)),
    st.tuples(st.just("variate"), st.sampled_from(VARIATES),
              st.lists(st.booleans(), min_size=4, max_size=4)),
)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64), trials=st.integers(1, 4),
       stream=st.lists(steps, max_size=40))
@example(seed=0, trials=4, stream=[("pick", 2**31 + 1, [True] * 4)] * 12)
@example(seed=1, trials=3, stream=[("pick", 1, [True] * 4), ("pick", 2**32 - 1, [True] * 4),
                                   ("variate", VARIATES[0], [True] * 4),
                                   ("pick", 4, [True, False, True, False])])
@example(seed=2, trials=4, stream=[("uniform", None, [True] * 4), ("pick", 5, [True] * 4),
                                   ("uniform", None, [True, True, False, False]),
                                   ("pick", 5, [True] * 4), ("uniform", None, [True] * 4)])
def test_reader_equals_scalar_integers(seed, trials, stream):
    refs = [np.random.default_rng([seed, t]) for t in range(trials)]
    picks = random_stream._Picks([np.random.default_rng([seed, t]) for t in range(trials)])
    for kind, what, mask in stream:
        at = np.flatnonzero(mask[:trials])
        if kind == "pick":
            got = picks.lemire(what, at)
            assert got.dtype == np.int64
            assert got.tolist() == [int(refs[t].integers(what)) for t in at]
        elif kind == "uniform":
            got = picks.next_double(at)
            assert got.dtype == np.float64
            assert got.tolist() == [refs[t].random() for t in at]
        else:
            assert [what(picks.rngs[t]) for t in at] == [what(refs[t]) for t in at]
    # Same position afterwards: the same PCG64 state, and the reader's
    # cached half is the one Generator.integers left in its bit generator.
    for g, ref, half in zip(picks.rngs, refs, picks.half):
        state, want = g.bit_generator.state, ref.bit_generator.state
        assert state["state"] == want["state"]
        assert (half >= 0) == bool(want["has_uint32"])
        if half >= 0:
            assert half == want["uinteger"]


def test_self_check_passes_under_this_numpy():
    assert random_stream._check_picks()


CHERNOFF = ExperimentConfig(num_cells=5, probes_per_round=1, policy="chernoff",
                            model=Exponential(0.5, 10.0), neg_log_c=(1.0, 2.0, 3.0, 4.0, 5.0),
                            trials=100, seed=271_828)
FIG2_DGF = dataclasses.replace(CHERNOFF, policy="dgf")
DGF_L = ExperimentConfig(num_cells=8, probes_per_round=3, num_targets=2, policy="dgf_l",
                         model=Bernoulli(0.1, 0.4), neg_log_c=(3.0,), trials=50, seed=11)


def test_disagreeing_reader_falls_back_to_scalar_integers(monkeypatch):
    expected = [run_experiment(cfg) for cfg in (CHERNOFF, DGF_L)]
    lemire, read = random_stream._Picks.lemire, []

    def wrong(self, b, trials):
        read.append(b)
        return (lemire(self, b, trials) + 1) % b

    monkeypatch.setattr(random_stream._Picks, "lemire", wrong)
    monkeypatch.setattr(random_stream, "_picks_verified", None)
    assert [run_experiment(cfg) for cfg in (CHERNOFF, DGF_L)] == expected
    assert random_stream._picks_verified is False
    assert read  # the self-check read the wrong picks
    checked = len(read)
    run_experiment(CHERNOFF)
    assert len(read) == checked  # and the engine never read them after


def test_disagreeing_uniforms_fall_back_to_scalar_random(monkeypatch):
    expected = run_experiment(FIG2_DGF)
    next_double, read = random_stream._Picks.next_double, []

    def wrong(self, trials):
        read.append(trials.size)
        return 1.0 - next_double(self, trials)

    monkeypatch.setattr(random_stream._Picks, "next_double", wrong)
    monkeypatch.setattr(random_stream, "_picks_verified", None)
    assert run_experiment(FIG2_DGF) == expected
    assert random_stream._picks_verified is False
    assert read  # the self-check read the wrong uniforms
    checked = len(read)
    run_experiment(FIG2_DGF)
    assert len(read) == checked  # and the engine never read them after


def test_engine_picks_go_through_the_reader(monkeypatch):
    # chernoff on the fig2 grid picks one of ranks 2..5 each round (bound
    # 4); dgf_l's subset truth draw picks 2 of 8 cells (bounds 8 and 7).
    # The single-target truth draw of chernoff and dgf reads one uniform
    # per trial, all of a chunk's trials at once; dgf picks nothing.
    # The self-check runs first, so that only the engine's draws are spied.
    monkeypatch.setattr(random_stream, "_picks_verified", random_stream._check_picks())
    assert random_stream._picks_verified
    lemire, next_double = random_stream._Picks.lemire, random_stream._Picks.next_double
    for cfg, wanted, uniforms in ((CHERNOFF, {4}, True), (DGF_L, {8, 7}, False),
                                  (FIG2_DGF, set(), True)):
        with mock.patch.object(random_stream._Picks, "lemire", autospec=True,
                               side_effect=lemire) as spy, \
                mock.patch.object(random_stream._Picks, "next_double", autospec=True,
                                  side_effect=next_double) as truths:
            sim._run_grid(cfg, cfg.costs)
        assert {call.args[1] for call in spy.call_args_list} == wanted
        assert sum(call.args[2].size for call in spy.call_args_list) >= (
            cfg.trials if wanted else 0)
        assert [call.args[1].tolist() for call in truths.call_args_list] == (
            [list(range(cfg.trials))] if uniforms else [])
