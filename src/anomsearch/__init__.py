"""Sequential search for abnormal cells under observation costs.

A small library for simulating and benchmarking sequential probing
policies: M cells, a few of them abnormal, observations drawn from a
normal or abnormal distribution depending on where you probe, and a cost
per observation that trades against the error probability. Policies,
their asymptotic rate benchmarks, and a reproducible Monte Carlo engine
live in separate modules; the ``anomsearch`` CLI drives preset
experiments and writes plot-ready CSV.
"""

from .models import (
    Bernoulli,
    Exponential,
    Gaussian,
    ModelError,
    ObservationModel,
    Tabulated,
    model_from_dict,
    model_to_dict,
)
from .oracle import (
    HypothesisActionKL,
    anomaly_hypotheses,
    hypothesis_action_kl,
    kl_quadrature,
    maximin_action_distribution,
    maximin_action_grid,
)
from .policies import (
    Declare,
    PolicyConfig,
    Probe,
    Stop,
    chernoff_generic_step,
    chernoff_step,
    dgf_step,
    dgfl_step,
    generic_stop_margin,
    ml_hypothesis,
    seq_dgfl_step,
    unknownl_step,
)
from .rates import (
    RateReport,
    bayes_lower_bound,
    rate_multi,
    rate_single,
    relative_loss,
    supports_unknown_count,
    unknownl_lower_bound,
)
from .sim import (
    POLICY_NAMES,
    AggregateMetrics,
    DecayReport,
    ExperimentConfig,
    TrialResult,
    aggregate,
    run_experiment,
    run_trial,
    run_trials,
    tau1_decay_diagnostic,
)
from .state import Declaration, SearchState, ranked_cells, update

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # models
    "ObservationModel",
    "Exponential",
    "Gaussian",
    "Bernoulli",
    "Tabulated",
    "ModelError",
    "model_to_dict",
    "model_from_dict",
    # state
    "SearchState",
    "Declaration",
    "update",
    "ranked_cells",
    # policies
    "POLICY_NAMES",
    "PolicyConfig",
    "Probe",
    "Declare",
    "Stop",
    "dgf_step",
    "chernoff_step",
    "dgfl_step",
    "seq_dgfl_step",
    "unknownl_step",
    "ml_hypothesis",
    "generic_stop_margin",
    "chernoff_generic_step",
    # rates
    "RateReport",
    "rate_single",
    "rate_multi",
    "bayes_lower_bound",
    "relative_loss",
    "supports_unknown_count",
    "unknownl_lower_bound",
    # sim
    "ExperimentConfig",
    "TrialResult",
    "AggregateMetrics",
    "DecayReport",
    "run_trial",
    "run_trials",
    "run_experiment",
    "aggregate",
    "tau1_decay_diagnostic",
    # oracle
    "HypothesisActionKL",
    "anomaly_hypotheses",
    "hypothesis_action_kl",
    "maximin_action_distribution",
    "maximin_action_grid",
    "kl_quadrature",
]
