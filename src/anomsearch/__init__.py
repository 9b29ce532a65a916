"""Sequential search for abnormal cells under observation costs.

A small library for simulating and benchmarking sequential probing
policies: M cells, a few of them abnormal, observations drawn from a
normal or abnormal distribution depending on where you probe, and a cost
per observation that trades against the error probability. Policies,
their asymptotic rate benchmarks, and a reproducible Monte Carlo engine
live in separate modules; the ``anomsearch`` CLI drives preset
experiments and writes plot-ready CSV.

Each module's ``__all__`` is its public API; the package re-exports them.
"""

from . import models, oracle, policies, rates, sim, state
from .models import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .policies import *  # noqa: F401,F403
from .rates import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403
from .state import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *models.__all__, *oracle.__all__, *policies.__all__,
           *rates.__all__, *sim.__all__, *state.__all__]
