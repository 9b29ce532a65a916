"""Observation models for normal and abnormal cells.

Every monitored cell emits i.i.d. observations from one of two densities:
``f`` while the cell is normal and ``g`` while it hosts an anomaly. The
search policies only ever touch a model through three quantities:

* random draws (``sample``),
* the pointwise log-likelihood ratio ``log g(y) - log f(y)`` (``llr``),
  whose running sums drive every probing and stopping rule, and
* the divergences ``D(g||f)`` and ``D(f||g)`` (``kl_divergences``), which
  pick the probing regime and calibrate the asymptotic risk bounds.

Models are immutable after construction and safe to share across
concurrently running trials; randomness always comes from a caller-owned
``numpy.random.Generator``. A draw consumes exactly one variate from the
generator, which is what makes trial replay and the hand-rolled simulation
oracles in the test suite possible.

The batched form splits a draw in three: ``base_variate`` (the
``Generator`` method itself, unbound: standard exponential, standard
normal or uniform) draws the base variate that one ``sample`` call would
consume, and ``base_variate(rng, out=array)`` fills an array with those
that successive ``sample`` calls would consume, since a Generator's array
draws equal its scalar draws in sequence (``base_range`` bounds them);
``law`` maps a mask of abnormal cells to each cell's law (its rate, mean
or success probability; for ``Tabulated`` the truth bit itself); and
``observations`` and ``llrs`` map laws and base variates to observations
and to their LLRs elementwise, with the same floating-point operations as
``sample`` followed by ``llr``. Where ``llr`` is arithmetic (Exponential,
Gaussian) it applies to arrays too, and ``llrs`` applies it to
``observations``; elsewhere ``llrs`` looks up the values ``llr`` returns.
The engine computes only the LLRs; it builds observations only for a
replayed trial's trace.
Constructors take only real numbers that a float can hold (lists of them
for ``Tabulated``), never bools, and reject parameters under which an
extreme base variate gives an infinite observation or LLR.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
import sys
from dataclasses import dataclass, fields
from typing import Any, Callable, Union

import numpy as np

__all__ = [
    "ModelError",
    "Exponential",
    "Gaussian",
    "Bernoulli",
    "Tabulated",
    "ObservationModel",
    "model_from_dict",
    "model_to_dict",
]

# Below this, the two densities are numerically indistinguishable and no
# stopping rule terminates in reasonable time.
_MIN_KL = 1e-9


class ModelError(ValueError):
    """A model specification is malformed or degenerate (f and g too close)."""


def check_geometry(m: int, k: int, l: int) -> None:
    """Require M >= 2 cells, 1 <= K <= M probes per round and 1 <= L < M targets."""
    if m < 2:
        raise ValueError("need at least two cells")
    if not 1 <= k <= m:
        raise ValueError(f"probes per round must lie in [1, {m}], got {k}")
    if not 1 <= l < m:
        raise ValueError(f"target count must lie in [1, {m}), got {l}")


def check_cost(cost: float) -> None:
    """Require an observation cost that is a normal float below 1.

    A cost is a real number, by the number rule of :func:`as_floats`: a bool,
    a string or None is refused by its type before any range check.
    Subnormal costs carry too few bits to tell nearby thresholds -log c
    apart, so they are refused along with 0, 1, NaN and out-of-range costs.
    """
    if isinstance(cost, bool) or not isinstance(cost, numbers.Real):
        raise ValueError(f"observation cost must be a real number, got {cost!r}")
    if not sys.float_info.min <= cost < 1.0:
        raise ValueError(f"observation cost must be a normal float in "
                         f"[{sys.float_info.min}, 1), got {cost}")


def as_floats(what: str, value: Any, many: bool = False) -> tuple[float, ...]:
    """The number rule for parameters: ``value`` is a real number that a
    float can hold, not a bool, or if ``many`` a list, tuple or 1-D array
    of them. Returns them as floats; raises ModelError naming ``what``."""
    listed = isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1
    items = value if listed else (value,)
    if listed != many or not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                                 for v in items):
        raise ModelError(f"{what} must be {'a list of numbers' if many else 'a number'}, "
                         f"got {value!r}")
    try:
        return tuple(float(v) for v in items)
    except OverflowError:
        raise ModelError(f"{what} holds an integer too large for a float") from None


def is_int(value: Any) -> bool:
    """The number rule for counts, cells and seeds: an int or a NumPy integer,
    never a bool (nor NumPy's bool, which is no NumPy integer)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_informative(model: "ObservationModel") -> None:
    """Reject f and g too close to tell apart, infinite KL, and parameters
    under which the most extreme base variates (``base_range``) give an
    infinite or NaN observation or LLR."""
    d_gf, d_fg = model.kl_divergences()
    if not (_MIN_KL <= d_gf < math.inf and _MIN_KL <= d_fg < math.inf):
        raise ModelError(
            f"{model.kind} model is degenerate: D(g||f)={d_gf:.3g}, "
            f"D(f||g)={d_fg:.3g}; both must be finite and at least {_MIN_KL}"
        )
    base = np.array(model.base_range)
    with np.errstate(over="ignore", invalid="ignore"):
        for abnormal in (False, True):
            law = model.law(np.full(2, abnormal))
            if not (np.isfinite(model.observations(law, base)).all()
                    and np.isfinite(model.llrs(law, base)).all()):
                raise ModelError(f"{model.kind} parameters overflow an observation or its "
                                 f"log-likelihood ratio")


def _checked(post_init: Callable[[object], None]) -> Callable[[object], None]:
    """The one constructor frame of every model.

    It applies :func:`as_floats` to each field and stores the tuple fields
    as tuples of floats, runs the model's own setup and then requires an
    informative model. Extreme parameters overflow or leave the domain of
    the closed forms (``(mu_g - mu_f) ** 2``, ``log(p_g / p_f)``); those
    arithmetic failures are reported as ModelError too: a bad model, not a
    crash.
    """

    @functools.wraps(post_init)
    def checked(self) -> None:
        for field in fields(self):
            many = field.type.startswith("tuple")
            floats = as_floats(f"{self.kind!r} model {field.name}", getattr(self, field.name), many)
            if many:
                object.__setattr__(self, field.name, floats)
        try:
            post_init(self)
            _require_informative(self)
        except ModelError:
            raise
        except (ArithmeticError, ValueError) as exc:
            raise ModelError(f"bad {self.kind} parameters: {exc}") from None

    return checked


@dataclass(frozen=True)
class Exponential:
    """Exponential observations with rate ``lambda_f`` (normal) / ``lambda_g`` (abnormal)."""

    lambda_f: float
    lambda_g: float

    kind = "exponential"

    @_checked
    def __post_init__(self) -> None:
        if not (self.lambda_f > 0 and self.lambda_g > 0):
            raise ModelError("exponential rates must be positive")
        for ratio in (self.lambda_g / self.lambda_f, self.lambda_f / self.lambda_g):
            if not 0.0 < ratio < math.inf:
                raise ModelError(f"exponential lambda_f = {self.lambda_f:g} and lambda_g = "
                                 f"{self.lambda_g:g}: their ratio overflows")
        object.__setattr__(self, "_log_ratio", math.log(self.lambda_g / self.lambda_f))
        object.__setattr__(self, "_rate_gap", self.lambda_g - self.lambda_f)

    def sample(self, abnormal: bool, rng: np.random.Generator) -> float:
        rate = self.lambda_g if abnormal else self.lambda_f
        return rng.standard_exponential() / rate

    base_variate = staticmethod(np.random.Generator.standard_exponential)
    # Ziggurat tail: at most r - log(2**-53) = 7.697 + 36.737.
    base_range = (0.0, 44.5)

    def law(self, abnormal: np.ndarray) -> np.ndarray:
        return np.where(abnormal, self.lambda_g, self.lambda_f)

    def observations(self, rate: np.ndarray, base: np.ndarray) -> np.ndarray:
        return base / rate

    def llrs(self, rate: np.ndarray, base: np.ndarray) -> np.ndarray:
        return self.llr(self.observations(rate, base))

    def llr(self, y: float | np.ndarray) -> float | np.ndarray:
        return self._log_ratio - self._rate_gap * y

    def kl_divergences(self) -> tuple[float, float]:
        # Closed forms for exponential rates a (true) vs b (mismatched):
        # D(a||b) = log(a/b) + b/a - 1.
        d_gf = math.log(self.lambda_g / self.lambda_f) + self.lambda_f / self.lambda_g - 1.0
        d_fg = math.log(self.lambda_f / self.lambda_g) + self.lambda_g / self.lambda_f - 1.0
        return d_gf, d_fg


@dataclass(frozen=True)
class Gaussian:
    """Gaussian observations with shared scale ``sigma`` and shifted means."""

    mu_f: float
    mu_g: float
    sigma: float = 1.0

    kind = "gaussian"

    @_checked
    def __post_init__(self) -> None:
        # llr(y) = a*y + b with a = (mu_g - mu_f)/sigma^2.
        var = self.sigma * self.sigma
        if not (self.sigma > 0 and var > 0):
            raise ModelError(f"gaussian sigma must be positive, with a square above 0, "
                             f"got {self.sigma:g}")
        a = (self.mu_g - self.mu_f) / var
        b = (self.mu_f * self.mu_f - self.mu_g * self.mu_g) / (2.0 * var)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ModelError("gaussian means and sigma overflow the log-likelihood ratio")
        object.__setattr__(self, "_slope", a)
        object.__setattr__(self, "_offset", b)

    def sample(self, abnormal: bool, rng: np.random.Generator) -> float:
        mu = self.mu_g if abnormal else self.mu_f
        return mu + self.sigma * rng.standard_normal()

    base_variate = staticmethod(np.random.Generator.standard_normal)
    # Ziggurat tail: |z| < r + sqrt(2 * 36.737) = 3.654 + 8.572.
    base_range = (-13.7, 13.7)

    def law(self, abnormal: np.ndarray) -> np.ndarray:
        return np.where(abnormal, self.mu_g, self.mu_f)

    def observations(self, mean: np.ndarray, base: np.ndarray) -> np.ndarray:
        return mean + self.sigma * base

    def llrs(self, mean: np.ndarray, base: np.ndarray) -> np.ndarray:
        return self.llr(self.observations(mean, base))

    def llr(self, y: float | np.ndarray) -> float | np.ndarray:
        return self._slope * y + self._offset

    def kl_divergences(self) -> tuple[float, float]:
        d = (self.mu_g - self.mu_f) ** 2 / (2.0 * self.sigma * self.sigma)
        return d, d


@dataclass(frozen=True)
class Bernoulli:
    """Coin-flip observations in {0, 1}; success probability ``p_f`` / ``p_g``."""

    p_f: float
    p_g: float

    kind = "bernoulli"

    @_checked
    def __post_init__(self) -> None:
        for p in (self.p_f, self.p_g):
            if not 0.0 < p < 1.0:
                raise ModelError("bernoulli probabilities must lie strictly in (0, 1)")
        object.__setattr__(self, "_llr_one", math.log(self.p_g / self.p_f))
        object.__setattr__(self, "_llr_zero", math.log((1.0 - self.p_g) / (1.0 - self.p_f)))
        # llrs' table, indexed by the observation: LLRs of 0 and 1.
        object.__setattr__(self, "_llr_array", np.array([self._llr_zero, self._llr_one]))

    def sample(self, abnormal: bool, rng: np.random.Generator) -> float:
        p = self.p_g if abnormal else self.p_f
        return 1.0 if rng.random() < p else 0.0

    base_variate = staticmethod(np.random.Generator.random)
    base_range = (0.0, 1.0 - 2.0**-53)

    def law(self, abnormal: np.ndarray) -> np.ndarray:
        return np.where(abnormal, self.p_g, self.p_f)

    def observations(self, p: np.ndarray, base: np.ndarray) -> np.ndarray:
        return (base < p).astype(np.float64)

    def llrs(self, p: np.ndarray, base: np.ndarray) -> np.ndarray:
        return self._llr_array.take(base < p)

    def llr(self, y: float) -> float:
        if y == 1.0:
            return self._llr_one
        if y == 0.0:
            return self._llr_zero
        raise ValueError(f"bernoulli observation must be 0 or 1, got {y!r}")

    def kl_divergences(self) -> tuple[float, float]:
        d_gf = self.p_g * self._llr_one + (1.0 - self.p_g) * self._llr_zero
        d_fg = -(self.p_f * self._llr_one + (1.0 - self.p_f) * self._llr_zero)
        return d_gf, d_fg


@dataclass(frozen=True)
class Tabulated:
    """Finite-support observations given by two pmfs over a shared support.

    Both pmfs must be strictly positive everywhere on the support so that
    every log-likelihood ratio is finite, and must each sum to 1 within
    1e-12.
    """

    support: tuple[float, ...]
    pmf_f: tuple[float, ...]
    pmf_g: tuple[float, ...]

    kind = "tabulated"

    @_checked
    def __post_init__(self) -> None:
        support, pmf_f, pmf_g = self.support, self.pmf_f, self.pmf_g
        if not support:
            raise ModelError("tabulated support is empty")
        if len(set(support)) != len(support):
            raise ModelError("tabulated support values must be distinct")
        if not all(math.isfinite(v) for v in support):
            raise ModelError("tabulated support values must be finite")
        if len(pmf_f) != len(support) or len(pmf_g) != len(support):
            raise ModelError("pmf lengths must match the support")
        for name, pmf in (("pmf_f", pmf_f), ("pmf_g", pmf_g)):
            if any(p <= 0.0 for p in pmf):
                raise ModelError(f"{name} must be strictly positive on the support")
            if abs(math.fsum(pmf) - 1.0) > 1e-12:
                raise ModelError(f"{name} must sum to 1 within 1e-12")
        llrs = tuple(math.log(q / p) for p, q in zip(pmf_f, pmf_g))
        object.__setattr__(self, "_llrs", llrs)
        object.__setattr__(self, "_llr_table", dict(zip(support, llrs)))
        # The batched form's tables, as arrays so that no call converts them.
        object.__setattr__(self, "_support_array", np.array(support))
        object.__setattr__(self, "_llr_array", np.array(llrs))
        # Right-open cumulative bins for inverse-cdf sampling; the final bin is
        # pinned to 1 so a uniform draw of exactly 1-eps never falls off the end.
        object.__setattr__(self, "_cum_f", np.append(np.cumsum(pmf_f[:-1]), 1.0))
        object.__setattr__(self, "_cum_g", np.append(np.cumsum(pmf_g[:-1]), 1.0))

    def sample(self, abnormal: bool, rng: np.random.Generator) -> float:
        cum = self._cum_g if abnormal else self._cum_f
        return self.support[bisect.bisect_right(cum, rng.random())]

    base_variate = staticmethod(np.random.Generator.random)
    base_range = (0.0, 1.0 - 2.0**-53)

    def law(self, abnormal: np.ndarray) -> np.ndarray:
        return abnormal

    def observations(self, abnormal: np.ndarray, base: np.ndarray) -> np.ndarray:
        return self._support_array[self._outcome(abnormal, base)]

    def llrs(self, abnormal: np.ndarray, base: np.ndarray) -> np.ndarray:
        return self._llr_array[self._outcome(abnormal, base)]

    def _outcome(self, abnormal: np.ndarray, base: np.ndarray) -> np.ndarray:
        """Each draw's position in the support, as ``sample``'s ``bisect_right`` finds it."""
        return np.where(abnormal, self._cum_g.searchsorted(base, side="right"),
                        self._cum_f.searchsorted(base, side="right"))

    def llr(self, y: float) -> float:
        try:
            return self._llr_table[y]
        except KeyError:
            raise ValueError(f"observation {y!r} is outside the tabulated support") from None

    def kl_divergences(self) -> tuple[float, float]:
        d_gf = math.fsum(q * l for q, l in zip(self.pmf_g, self._llrs))
        d_fg = -math.fsum(p * l for p, l in zip(self.pmf_f, self._llrs))
        return d_gf, d_fg


ObservationModel = Union[Exponential, Gaussian, Bernoulli, Tabulated]

_KINDS = {cls.kind: cls for cls in (Exponential, Gaussian, Bernoulli, Tabulated)}


def model_to_dict(model: ObservationModel) -> dict:
    """Kind-tagged plain-dict form of a model, as stored in config files:
    its fields in declaration order, tuples written as lists."""
    out: dict = {"kind": model.kind}
    for field in fields(model):
        value = getattr(model, field.name)
        out[field.name] = list(value) if isinstance(value, tuple) else value
    return out


def model_from_dict(spec: dict) -> ObservationModel:
    """Inverse of :func:`model_to_dict`; raises ModelError on bad input."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ModelError("model spec must be a mapping with a 'kind' key")
    kind = spec["kind"]
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ModelError(f"unknown model kind {kind!r}; expected one of {sorted(_KINDS)}")
    try:
        return cls(**{k: v for k, v in spec.items() if k != "kind"})
    except TypeError as exc:
        raise ModelError(f"bad parameters for {kind!r} model: {exc}") from None
