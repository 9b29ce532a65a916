"""The random stream: every draw a trial makes, and the order it makes them in.

The engine in ``sim`` (see its "Engine") reads all of a chunk's
randomness through one :class:`ChunkStream`; it draws nothing itself.

Reproducibility contract
------------------------
Trial t of an experiment draws every random variate from
``numpy.random.default_rng([seed, t])``, in a fixed order. This module
builds that generator bit for bit in ``_trial_generators``, which hashes
a chunk's seeds at once, about a sixth of ``default_rng``'s cost per trial
on chunks of 200 or more, and checks itself against ``default_rng`` on
first use in each process; chunks of fewer than ``_MIN_HASHED`` trials
call ``default_rng``. The draws come in this order:

1. ground truth (skipped entirely when ``fixed_hypothesis`` is set): one
   uniform variate (``random``) scanned against the prior for target
   constraint ``one``, or a partial Fisher-Yates shuffle (one ``integers``
   call per target) for target subsets;
2. each round, the policy's own draws first, then one base variate per
   probe in ascending cell order, the round a trial ends in included. The round's
   draws follow a recipe fixed by the config alone: K base variates,
   preceded for ``chernoff`` by one ``integers`` call per cell of its
   random subset (bounds M - 1, M - 2, ...: K calls in the "f" regime,
   K - 1 in the "g" regime, none when K = M) and for ``chernoff_generic``
   by one uniform variate. The state decides only how the draws are used:
   ``chernoff_generic`` reads its uniform against ``oracle.anomaly_maximin``'s
   mixture, which at the L = 1 tie D(g||f) = D(f||g) / (M - 1) is the ML cell.

Nothing else touches the stream, so a trial is bit-reproducible in
isolation and experiment results cannot depend on scheduling or on how
trials are chunked across worker processes. Nor does the stream depend on
the cost: trial t reads the same variates at every point of the grid, so
one generator serves every cost.

Drawing
-------
Each trial has one generator, one truth draw and one stream of variates,
and all of its rows read them. A rule builder in ``sim`` returns its
draw recipe as data, one entry per policy draw of a round (``_Draw``): an
int bound b for an ``integers(b)`` pick, else the ``Generator`` method to
call. It draws nothing. Each round's d policy draws come before its K base
variates, and only trials that still have a live row draw. Draws past a
trial's end are never read and nothing follows them in the stream, so
they are unobservable. How a round is drawn follows from the recipe:

* When every call is the base variate's own ``Generator`` method, a
  trial's stream after the truth draw is nothing but that method's
  variates, d + K per round. So it is for ``dgf``, ``dgf_l``,
  ``seq_dgf_l``, ``unknown_l`` and ``chernoff`` drawing no subset (d = 0),
  and for ``chernoff_generic`` on Bernoulli and Tabulated cells, whose
  base variate is a uniform like its one policy draw (d = 1). The rounds
  come in blocks that ``_base_blocks`` draws ahead, one row per chunk
  trial in contract order, when the last block runs out. Each live row
  reads its trial's round, its d policy draws and then its K base
  variates, from places fixed when the chunk starts
  (``ChunkStream.places``), and one gather reads a round for all the live
  rows. A block holds ``_BLOCK_ROUNDS`` rounds, or as
  many as the chunk's trials fit in ``_BLOCK_BYTES`` and at least one,
  one array call per trial (``Generator`` array draws equal the same
  number of scalar draws).
* A recipe that mixes methods, ``chernoff``'s subset picks (``integers``,
  which may use half of a cached 64-bit word) or ``chernoff_generic``'s
  uniform before a ziggurat base variate (Exponential, Gaussian), is
  drawn one round at a time by one ``_round_draws`` call, entry by entry
  for all the drawing trials at once, straight into an array in row
  order: the d policy draws and then the K base variates of every live
  row, before the rule steps. A trial that ends in the round draws its
  base variates too, which nothing reads. Such a rule never reads the
  threshold, so it runs one row per trial.

Every ``integers`` pick, the subset truth draw's and ``chernoff``'s, goes
through the chunk's one ``_Picks``, which reads it off raw PCG64 words for
all the picking trials at once instead of one ``Generator.integers`` call
per trial, bit for bit. So does the single-target truth draw's uniform,
read from each trial's next raw word as ``Generator.random`` reads it. Both
fall back to those calls should the reader's once-per-process self-check
fail; every other draw of a one-round recipe is one scalar call per trial.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import compress
from typing import Callable, get_args

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .models import ObservationModel

# Most rounds a trial's block of draws holds when its recipe draws ahead.
_BLOCK_ROUNDS = 32
# Most bytes a chunk's block of draws may take: wider rounds or more trials
# get blocks of fewer rounds, never fewer than one.
_BLOCK_BYTES = 1 << 20
# A policy's draw recipe: the draws it makes each round before its K base
# variates, the same every round and fixed by the config. An int b stands
# for one ``integers(b)`` call (chernoff's subset, one per bound), else the
# entry is the ``Generator`` method it calls (``Generator.random`` for
# chernoff_generic).
_Draw = tuple[int | Callable[[np.random.Generator], float], ...]

# numpy.random.SeedSequence's hash, M. O'Neill's seed_seq, with its pool of
# four uint32 words; NumPy's tests pin these constants to the C++ reference.
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# (seed, trial) pairs the seeding self-check builds both ways: seed 0, a
# one-word seed, a seed of 2^64 or more, and a seed of 2^96 or more, whose
# five entropy words run SeedSequence's loop over entropy beyond the pool.
_SEEDING_CHECKS = ((0, 0), (271_828, 1), (2**64 + 1, 2**32 - 1), (2**128 - 1, 12_345))
# Whether _seed_words reproduces SeedSequence under this NumPy; None until checked.
_seeding_verified: bool | None = None
# One pass of _seed_words costs about as much as five default_rng calls, so
# smaller chunks, such as run_trial's one trial, call default_rng.
_MIN_HASHED = 8


class _Words(ISeedSequence):
    """A seed sequence that hands its bit generator four precomputed uint64 words.

    One holder serves every generator of a :func:`_trial_generators` call,
    its ``words`` rebound before each: PCG64 reads ``generate_state`` once, in
    its ``__init__``, and never again. The holder stays local to the call, so
    no other thread or process sees it rebound; a generator keeps it only as
    its ``seed_seq``, which nothing reads and which cannot spawn.
    """

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _trial_generators(seed: int, trials: range) -> list[np.random.Generator]:
    """``default_rng([seed, t])`` for each t in ``trials``, a range of consecutive indices.

    The only place that builds a trial's generator. Trials below 2^32 get
    PCG64 seeded with :func:`_seed_words`, bit for bit the state
    ``default_rng`` gives them; the first call in each process checks that
    on ``_SEEDING_CHECKS`` and, if any pair disagrees (NEP 19 lets a NumPy
    release change SeedSequence), every generator is built by
    ``default_rng`` from then on, as are those of trials from 2^32 on and
    of ranges shorter than ``_MIN_HASHED``.
    """
    global _seeding_verified
    holder = _Words()

    def seeded(words):
        holder.words = words
        return np.random.Generator(np.random.PCG64(holder))

    if _seeding_verified is None:
        _seeding_verified = all(
            seeded(_seed_words(s, range(t, t + 1))[0]).bit_generator.state
            == np.random.default_rng([s, t]).bit_generator.state for s, t in _SEEDING_CHECKS)
    cut, generators = trials.start, []
    if _seeding_verified and len(trials) >= _MIN_HASHED:
        cut = max(cut, min(trials.stop, 2**32))
        generators = [seeded(words) for words in _seed_words(seed, range(trials.start, cut))]
    return generators + [np.random.default_rng([seed, t]) for t in range(cut, trials.stop)]


def _seed_words(seed: int, trials: range) -> np.ndarray:
    """``SeedSequence([seed, t]).generate_state(4, np.uint64)``, one row per t in ``trials``.

    Runs SeedSequence's mix_entropy and generate_state once for all the
    trials, on (words, trials) uint32 arrays: the seed's words are the same
    in every column and each t, below 2^32, is one word. The hash constants
    advance once per hashmix whatever the data, so every step that reads a
    run of them runs at once.
    """
    seed = operator.index(seed)
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    # Entropy shorter than the pool is padded with zero words, as SeedSequence does.
    entropy = np.zeros((max(len(words) + 1, 4), len(trials)), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(trials.start, trials.stop)
    a = _hash_constants(_INIT_A, _MULT_A, 4 * len(entropy))
    pool = _hashmix(entropy[:4], a[:5])
    # Mix every pool word into the others, then fold in entropy beyond the pool.
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[4 + 3 * src:8 + 3 * src]))
    for i, word in enumerate(entropy[4:]):
        pool = _mix(pool, _hashmix(word, a[16 + 4 * i:21 + 4 * i]))
    state = _hashmix(np.concatenate([pool, pool]), _hash_constants(_INIT_B, _MULT_B, 8))
    state = state.astype(np.uint64)
    # Little-endian pairs of uint32 words make the uint64 words; PCG64 reads each row raw.
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


@lru_cache(maxsize=8)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of ``count`` hashmix steps, and after the
    last; one read-only array per process."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)
    consts.flags.writeable = False
    return consts


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one step per row of the result, the i-th under consts[i:i + 2]."""
    value = value ^ consts[:-1, None]
    value *= consts[1:, None]
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> 16


# Bounds the pick self-check draws: b = 1 (no draw), a power of two, small
# bounds, and the two largest 32-bit cases; 2^31 + 1 rejects about half the time.
_PICK_CHECKS = (1, 4, 5, 9_999, 2**31 + 1, 2**32 - 1)
# Whether _Picks reads Generator.integers' picks under this NumPy; None until checked.
_picks_verified: bool | None = None


class _Picks:
    """Each trial's ``Generator.integers(b)`` picks, 1 <= b < 2^32, and
    ``Generator.random()`` uniforms, read from raw PCG64 words.

    NumPy draws such a pick by Lemire's multiply on ``next_uint32``,
    rejecting while the product's low word is below ``(2^32 - b) % b``;
    b = 1 draws nothing. PCG64's ``next_uint32`` returns the low half of a
    fresh 64-bit word and keeps the high half for its next call, and no
    base variate reads that half (each reads whole words). So this reader
    keeps the half per trial (``half``, -1 when empty), calls
    ``random_raw`` only for trials that need a fresh word, and multiplies
    for all picking trials at once. All of a trial's picks go through its
    one reader, so the bits hold in any order of picks and base variates.
    A uniform is NumPy's ``next_double``, the top 53 bits of a fresh word
    over 2^53, which leaves any cached half in place.
    The first use in each process runs :func:`_check_picks`; if that fails
    (NEP 19 lets NumPy change either stream), every pick is a scalar
    ``integers`` call, and every uniform a scalar ``random`` call, from then on.
    """

    __slots__ = ("rngs", "half")

    def __init__(self, rngs: list) -> None:
        self.rngs = rngs
        self.half = [-1] * len(rngs)

    def read(self, b: int | None, trials: np.ndarray) -> np.ndarray:
        """One pick below ``b`` for each of the distinct ``trials``, as int64,
        or for b None one uniform in [0, 1) each, as float64."""
        if _reader_verified():
            return self.next_double(trials) if b is None else self.lemire(b, trials)
        rngs = self.rngs
        scalars = (rngs[t].random() if b is None else rngs[t].integers(b) for t in trials.tolist())
        return np.fromiter(scalars, float if b is None else np.int64, trials.size)

    def next_double(self, trials: np.ndarray) -> np.ndarray:
        """The reader itself: what ``random()`` would give each of ``trials``."""
        rngs = self.rngs
        words = np.array([rngs[t].bit_generator.random_raw() for t in trials.tolist()],
                         dtype=np.uint64)
        return (words >> 11) * 2**-53

    def lemire(self, b: int, trials: np.ndarray) -> np.ndarray:
        """The reader itself: what ``integers(b)`` would give each of ``trials``."""
        if b == 1:
            return np.zeros(trials.size, dtype=np.int64)
        scale = np.uint64(b)
        product = self.next32(trials) * scale
        threshold = (2**32 - b) % b
        if threshold:
            redo = (product & _MASK32) < threshold
            while np.count_nonzero(redo):
                product[redo] = self.next32(trials[redo]) * scale
                redo = (product & _MASK32) < threshold
        return (product >> 32).view(np.int64)

    def next32(self, trials: np.ndarray) -> np.ndarray:
        """Each trial's ``next_uint32``, as uint64: its cached half, else the
        low half of a fresh raw word, whose high half it caches."""
        half, rngs, out = self.half, self.rngs, []
        for t in trials.tolist():
            word = half[t]
            if word < 0:
                word = rngs[t].bit_generator.random_raw()
                half[t] = word >> 32
                word &= _MASK32
            else:
                half[t] = -1
            out.append(word)
        return np.array(out, dtype=np.uint64)


def _reader_verified() -> bool:
    """Whether :class:`_Picks` reads picks and uniforms itself, checked once per process."""
    global _picks_verified
    if _picks_verified is None:
        _picks_verified = _check_picks()
    return _picks_verified


def _check_picks() -> bool:
    """Whether :class:`_Picks` equals scalar ``Generator.integers`` and
    ``Generator.random`` here.

    Eight trials draw ``_PICK_CHECKS`` three times over, the odd rounds on
    half of the trials, with a uniform after the second and fifth picks and
    each model's base variate after every second pick, so a cached half
    outlives a uniform and a base variate; then the generators and the
    cached halves must match.
    """
    trials = np.arange(8)
    for variate in dict.fromkeys(cls.base_variate for cls in get_args(ObservationModel)):
        picks = _Picks(_trial_generators(271_828, range(8)))
        refs = _trial_generators(271_828, range(8))
        for rep in range(3):
            at = trials[1::2] if rep % 2 else trials
            for i, b in enumerate(_PICK_CHECKS):
                if picks.lemire(b, at).tolist() != [refs[t].integers(b) for t in at]:
                    return False
                if i % 3 == 1 and picks.next_double(at).tolist() != [refs[t].random() for t in at]:
                    return False
                if i % 2 and ([variate(picks.rngs[t]) for t in at]
                              != [variate(refs[t]) for t in at]):
                    return False
        for g, ref, half in zip(picks.rngs, refs, picks.half):
            state, want = g.bit_generator.state, ref.bit_generator.state
            if (state["state"] != want["state"] or (half >= 0) != want["has_uint32"]
                    or half >= 0 and half != want["uinteger"]):
                return False
    return True


def _draw_truths(cfg, picks: _Picks) -> np.ndarray:
    """Each trial's true target cells as one mask row, its generator's first
    draws; ``cfg`` is the run's ``sim.ExperimentConfig``."""
    m, rows = cfg.num_cells, np.arange(len(picks.rngs))
    truth = np.zeros((rows.size, m), dtype=bool)
    if cfg.fixed_hypothesis is not None:
        truth[:, list(cfg.fixed_hypothesis)] = True
    elif cfg.priors is not None:
        # ExperimentConfig sets priors exactly when the target constraint is
        # "one". The first cell whose running prior sum exceeds one uniform
        # variate; cumsum adds in the scalar scan's order.
        cells = np.cumsum(cfg.priors).searchsorted(picks.read(None, rows), side="right")
        truth[rows, np.minimum(cells, m - 1)] = True
    else:
        # Each trial's partial Fisher-Yates shuffle, one integers call per
        # target, taken for all trials at once in each generator's own order.
        pool = np.tile(np.arange(m), (rows.size, 1))
        for i in range(cfg.true_target_count):
            j = i + picks.read(m - i, rows)
            pool[rows, i], pool[rows, j] = pool[rows, j], pool[rows, i]
        truth[rows[:, None], pool[:, :cfg.true_target_count]] = True
    return truth


def _base_blocks(model: ObservationModel, picks: _Picks, live: np.ndarray, width: int,
                 rounds: int) -> np.ndarray:
    """The next ``rounds`` rounds of ``width`` base variates of each chunk
    trial t that has a ``live`` row (row r is trial r % trials), one array
    call per trial, flattened from block row t; block rows of other trials
    stay unfilled and are never read."""
    drawing = np.zeros(len(picks.rngs), dtype=bool)
    drawing[live % len(drawing)] = True
    blocks = np.empty((len(drawing), rounds * width))
    variate = model.base_variate
    for g, row in compress(zip(picks.rngs, blocks), drawing):
        variate(g, out=row)
    return blocks.ravel()


def _round_draws(draws: _Draw, picks: _Picks, trials: np.ndarray) -> np.ndarray:
    """The ``draws`` of one round of a recipe drawn one round at a time, for
    chunk trials ``trials``, as a (trials, len(draws)) array, one row each
    in that order. It draws entry by entry, for all the trials at once: an
    int b is an ``integers(b)`` pick through ``picks``, any other entry one
    scalar call per trial."""
    rngs = [picks.rngs[t] for t in trials.tolist()]
    out = np.empty((len(rngs), len(draws)))
    for j, draw in enumerate(draws):
        out[:, j] = (picks.read(draw, trials) if isinstance(draw, int)
                     else np.fromiter(map(draw, rngs), float, len(rngs)))
    return out


class ChunkStream:
    """One chunk's stream: its trials' generators, truths and draws.

    Built when the chunk starts, it builds the trials' generators and one
    ``_Picks`` over them and draws ``truth``, one mask row per trial. Then
    each round the engine reads all of its live rows' draws in one call
    (:meth:`round`). Chunk row r reads trial r % trials. For a recipe drawn
    ahead, a row reads its blocks of :func:`_base_blocks` at places fixed
    when the chunk starts (:meth:`places`), one per draw of a round: its d
    policy draws, then its K base variates. The engine's live rows keep
    them (``sim._LiveRows.at``), so the stream holds nothing per row, and
    one gather reads a round. Block
    rows of trials without a live row are never read. ``cfg`` is the run's
    ``sim.ExperimentConfig``.
    """

    def __init__(self, cfg, trials: range, draws: _Draw) -> None:
        model, k, d = cfg.model, cfg.probes_per_round, len(draws)
        self.picks = picks = _Picks(_trial_generators(cfg.seed, trials))
        self.truth = _draw_truths(cfg, picks)
        self.model, self.d, self.width, self.rounds = model, d, d + k, None
        self.recipe = draws + (model.base_variate,) * k
        # A recipe of the base variate's own method draws ahead, as many
        # rounds as fit in _BLOCK_BYTES.
        if all(draw is model.base_variate for draw in draws):
            self.rounds = min(_BLOCK_ROUNDS, max(1, _BLOCK_BYTES // (8 * len(trials) * (d + k))))

    def places(self, rows: int) -> np.ndarray | None:
        """Where each of ``rows`` chunk rows reads all d + K draws of a block's
        first round, its d policy draws and then its K base variates; None
        for a recipe drawn one round at a time."""
        if self.rounds:
            return ((np.arange(rows) % len(self.picks.rngs) * self.rounds * self.width)[:, None]
                    + np.arange(self.width))

    def round(self, n: int, index: np.ndarray,
              at: np.ndarray | None) -> tuple[np.ndarray | None, np.ndarray]:
        """Round ``n``'s policy draws (None if the recipe has none; picks as
        floats) and K base variates, one row each, for the live rows at chunk
        rows ``index``, which read their blocks at ``at`` (:meth:`places`)."""
        if at is None:
            # One row per trial, so a row's chunk index is its trial.
            drawn = _round_draws(self.recipe, self.picks, index)
            return drawn[:, :self.d], drawn[:, self.d:]
        offset = (n % self.rounds) * self.width
        if not offset:
            self.blocks = _base_blocks(self.model, self.picks, index, self.width, self.rounds)
        # One gather reads the round's d policy draws and K base variates.
        drawn = self.blocks[offset:][at]
        return (drawn[:, :self.d], drawn[:, self.d:]) if self.d else (None, drawn)
