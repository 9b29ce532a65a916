"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/tracing.py`` times the package from outside ``src/`` by
replacing module attributes by name, and ``sim`` keeps the names below
only for it: the scalar step rules and ``SearchState``/``update``, which
the lockstep engine vectorises, and the maximin LP and its KL table; the
engine calls none of them. Installing the tracer fails as soon as ``src/``
drops one of them, so this test does that and checks that ``restore`` puts
every original back. It also checks that the tracer's timed pool replaces
``sim.ProcessPoolExecutor``, so that ``--trace 1`` still times the pool of
a multi-worker run. ``sim`` imports the pool and the step rules on first
read and never binds them, and ``restore`` leaves its namespace so.
"""

import importlib.util
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The step rules, which sim serves on first read and never binds.
STEP_RULES = (
    "chernoff_step",
    "chernoff_generic_step",
    "dgf_step",
    "dgfl_step",
    "seq_dgfl_step",
    "unknownl_step",
)
# Names the tracer wraps in sim; all of them are kept there only for it.
SIM_NAMES = ("SearchState", "update", *STEP_RULES, "hypothesis_action_kl",
             "maximin_action_distribution")


def load_bench_runner(monkeypatch):
    """perfbench/run.py as a module; it puts perfbench/ on sys.path, undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_on_the_package(monkeypatch):
    runner = load_bench_runner(monkeypatch)
    modules = runner.program_modules()
    sim = modules["sim"]
    assert not any(name in vars(sim) for name in STEP_RULES)
    # perfbench's test_install_and_restore_leave_every_attribute_as_found
    # reads vars(sim)["update"], so these stay bound.
    assert "SearchState" in vars(sim) and "update" in vars(sim)
    originals = {name: getattr(sim, name) for name in SIM_NAMES}
    pool_bound = "ProcessPoolExecutor" in vars(sim)
    tracer = runner.tracing.Tracer()
    try:
        tracer.install(modules)
        wrapped = [name for name in SIM_NAMES if getattr(sim, name) is not originals[name]]
        assert wrapped == list(SIM_NAMES)
        pool = sim.ProcessPoolExecutor
        assert issubclass(pool, ProcessPoolExecutor) and pool is not ProcessPoolExecutor
    finally:
        tracer.restore()
    assert all(getattr(sim, name) is originals[name] for name in SIM_NAMES)
    assert sim.ProcessPoolExecutor is ProcessPoolExecutor
    assert ("ProcessPoolExecutor" in vars(sim)) == pool_bound
    assert not any(name in vars(sim) for name in STEP_RULES)
