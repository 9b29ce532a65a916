"""The package's public names: exactly the union of its modules' ``__all__``.

``anomsearch/__init__.py`` star-imports ``models``, ``oracle``, ``rates`` and
``sim`` and concatenates their ``__all__`` lists, so a name is public when
one of those modules lists it. These tests pin the resulting set, so adding
a name to a module's ``__all__`` or dropping one shows up here. The scalar
reference of ``policies`` and ``state`` is left out of the package, and its
names import from their own modules only.
"""

import importlib

import pytest

import anomsearch

PUBLIC_NAMES = {
    "__version__",
    # models
    "Bernoulli", "Exponential", "Gaussian", "ModelError", "ObservationModel", "Tabulated",
    "model_from_dict", "model_to_dict",
    # oracle
    "HypothesisActionKL", "anomaly_hypotheses", "hypothesis_action_kl", "kl_quadrature",
    "maximin_action_distribution", "maximin_action_grid",
    # rates
    "RateReport", "bayes_lower_bound", "rate_multi", "rate_single", "relative_loss",
    "unknownl_lower_bound",
    # sim
    "POLICY_NAMES", "AggregateMetrics", "DecayReport", "ExperimentConfig", "TrialColumns",
    "TrialResult", "aggregate", "run_experiment", "run_trial", "run_trials",
    "tau1_decay_diagnostic",
}
MODULES = ("models", "oracle", "rates", "sim")
# Modules whose ``__all__`` the package leaves out.
REFERENCE_MODULES = ("policies", "state")
# Names that their modules define but leave out of ``__all__``.
UNEXPORTED = (("models", "check_geometry"), ("policies", "PolicyAction"),
              ("sim", "POLICIES"), ("sim", "PolicyEntry"))


def test_all_is_the_pinned_set_without_duplicates():
    assert len(PUBLIC_NAMES) == 32
    assert set(anomsearch.__all__) == PUBLIC_NAMES
    assert len(anomsearch.__all__) == len(PUBLIC_NAMES)


def test_every_name_is_its_defining_modules_object():
    owners = {}
    for name in MODULES:
        module = importlib.import_module(f"anomsearch.{name}")
        for public in module.__all__:
            assert public not in owners, f"{public} is in both {owners.get(public)} and {name}"
            owners[public] = name
            assert getattr(anomsearch, public) is getattr(module, public)
    assert set(owners) == PUBLIC_NAMES - {"__version__"}


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from anomsearch import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC_NAMES


def test_unexported_names_still_import_from_their_modules():
    from anomsearch.models import check_geometry  # noqa: F401
    from anomsearch.policies import PolicyAction  # noqa: F401
    from anomsearch.sim import POLICIES, PolicyEntry

    assert all(isinstance(entry, PolicyEntry) for entry in POLICIES.values())
    for module, name in UNEXPORTED:
        assert name not in importlib.import_module(f"anomsearch.{module}").__all__
        assert not hasattr(anomsearch, name)


def test_reference_names_import_from_their_own_modules_only():
    seen = 0
    for name in REFERENCE_MODULES:
        module = importlib.import_module(f"anomsearch.{name}")
        for reference in module.__all__:
            assert not hasattr(anomsearch, reference), reference
            with pytest.raises(ImportError):
                exec(f"from anomsearch import {reference}", {})
            namespace = {}
            exec(f"from anomsearch.{name} import {reference}", namespace)
            assert namespace[reference] is getattr(module, reference)
            seen += 1
    assert seen == 16
