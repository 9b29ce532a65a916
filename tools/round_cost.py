"""Microbenchmark: the lockstep engine's cost per round.

Runs every configuration of the benchmark's workloads, as
``perfbench/workloads.py`` spells them out in ``WORKLOADS``, under its
label there: ``fig2_dgf`` (``short_trials``), ``dgf_l`` and
``table1_unknown_l`` (``long_trials``), ``fig2_chernoff`` and
``table1_chernoff_generic`` (``randomized``). ``fig2_chernoff`` is the one
whose draws mix ``Generator`` methods and so are drawn one round at a time.
Each is resolved through the package's own ``cli.resolve_config`` at this
script's trials and seed, and runs through the engine at 1, 100 and 1000
trials. The script prints one row per (config, trials):

* ``rounds``: engine rounds of one pass at seed 0, one per call of the
  policy's lockstep rule (in each chunk, the longest row's tau plus the
  round that ends it);
* ``ms_per_pass``: wall time of a pass, the mean of the faster half of
  seeds 0-19 (each seed the best of ``REPEATS`` passes);
* ``us_per_round``: the same passes' wall time over their rounds, the
  mean of the faster half of the seeds. A pass includes the chunk's
  set-up (generators, truth draw, rule), so at 1 trial it is a
  few percent above the bare round. How many rows a round advances
  depends on the engine's layout (one row per trial, or per cost and
  trial), so compare layouts by ``ms_per_pass``;
* ``numpy_calls_per_round``: calls into NumPy per round at seed 0, counted
  with ``sys.setprofile``: NumPy functions and array or generator methods
  called from the package's code;
* ``operators_per_round``: operator and subscript instructions (indexing,
  arithmetic, comparisons) the package's code runs per round at seed 0,
  counted with ``sys.settrace``. Nearly all of them act on arrays, so the
  two columns together count the round's NumPy operations, give or take a
  few on Python integers;
* ``draw_calls_per_round``: ``Generator`` calls per round at seed 0 made
  through the callables the engine draws with, each wrapped in a counter:
  the draw recipe's callable entries, ``model.base_variate`` (a block of
  variates is one call) and the pick reader's ``stream._Picks.next32`` (one
  per raw word it reads, each a ``random_raw`` call).
  ``numpy_calls_per_round`` misses these, because ``Generator`` methods
  are Cython functions and emit no ``sys.setprofile`` events. The column
  leaves out generator construction, the single-target truth draw's
  uniform, and ``integers`` calls that no wrapped callable makes: after a
  failed pick self-check, every pick;
* ``compactions_per_pass``: calls of ``sim._LiveRows.keep`` in one pass
  at seed 0, summed over the pass's chunks. Each call drops the rows that
  have reached their last threshold from the live rows' arrays;
* ``fixed_us_per_trial``: the part of a pass spent before its rounds, over
  its trials: time inside ``stream._trial_generators``, ``stream._draw_truths``
  and each chunk's first ``stream._base_blocks`` call (none for a recipe drawn
  one round at a time), the mean of the faster half of the seeds, each
  the best of ``REPEATS`` passes;
* ``aggregate_us_per_point``: ``sim.aggregate`` on the pass's grid, over
  its cost points, timed the same way.

Run from the repository root: ``python3 tools/round_cost.py [--json]``.
It reads the package from ``src/`` next to this file, so a copy of this
script in another checkout measures that checkout. Its timings are not
comparable between processes, since the machine's speed drifts between
runs: on a 2-vCPU VM one run read ``dgf_l`` at 1 trial at 0.688 ms per
pass and a run of the previous commit, minutes later, 0.414 ms, while
alternated in one process the two read 0.572 and 0.571 ms. Compare two
checkouts with ``--against``, which alternates them in one process.

``--against PATH`` compares this checkout with another one instead: it
imports the package a second time from ``PATH/src`` (or from ``PATH`` if
that holds ``anomsearch/`` itself), and for each (config, trials) times one
pass per seed on each side, the best of ``REPEATS``, the two sides back to
back and alternating which goes first. It prints each side's median ms per
pass, the ratio (the median over seeds of each seed's own pass time of this
checkout over PATH's), the seeds on which this checkout was faster, and
whether both sides gave bit-identical columns. No benchmark config tracks
tau1, so each side also runs each seed of a single-target config
(``fig2_dgf``, ``fig2_chernoff``) once more with ``diagnostics=True``,
untimed, and those columns, tau1 included, count towards ``identical``. It
exits 1 if any row reads ``identical False``, with or without ``--json``,
and 0 otherwise, so it can gate a change that must keep every output bit
for bit. Pairing each seed's two passes keeps a burst of machine noise out
of the ratio unless it lands between them. What an identical copy reads:
over four runs of 15 rows on a 2-vCPU VM, ratios of 0.989-1.018 and 1.003
on average (the ratio of the two sides' medians read 0.966-1.170), and
this checkout faster on 5-13 of the 20 seeds, 8.9 on average rather than
10.
"""

from __future__ import annotations

import argparse
import contextlib
import dis
import importlib.util
import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import anomsearch  # noqa: E402
from anomsearch import ExperimentConfig, sim, stream  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Each benchmark spec's config layer, one policy each, by its label.
CONFIGS = {label: layer for workload in WORKLOADS.values() for label, layer in workload.specs}
TRIALS = (1, 100, 1000)
SEEDS = range(20)
REPEATS = 3


def config(name: str, trials: int, seed: int, package=anomsearch) -> ExperimentConfig:
    """Config ``name`` at ``trials`` and ``seed``, resolved by ``package``'s own CLI."""
    cli = importlib.import_module(f"{package.__name__}.cli")
    spec = cli.resolve_config(CONFIGS[name], {"trials": trials, "seed": seed})
    policy, = spec.policies
    return spec.experiment_config(policy)


@contextlib.contextmanager
def patched(*patches):
    """Set each ``(owner, name, value)`` for the block, then restore what the owner held."""
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def one_pass(cfg: ExperimentConfig, engine=sim) -> tuple[float, int]:
    """Seconds for one pass of ``engine`` (a ``sim`` module) over cfg's trials, and its rounds."""
    start = time.perf_counter()
    chunks = engine._run_lockstep(cfg, cfg.costs, 0, cfg.trials)
    elapsed = time.perf_counter() - start
    return elapsed, sum(int(chunk.tau.max()) + 1 for chunk in chunks)


def numpy_calls(cfg: ExperimentConfig) -> int:
    """Calls into NumPy made from the package's code during one pass."""
    src, numpy_dir = str(SRC), str(Path(np.__file__).parent)
    count = 0

    def from_package(frame) -> bool:
        return frame is not None and frame.f_code.co_filename.startswith(src)

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call" and from_package(frame):
            owner = getattr(arg, "__self__", None)
            module = getattr(arg, "__module__", None) or type(owner).__module__
            count += module.startswith("numpy")
        elif event == "call" and from_package(frame.f_back):
            code = frame.f_code
            count += (code.co_filename.startswith(numpy_dir)
                      and not code.co_name.endswith("_dispatcher"))

    sys.setprofile(profile)
    try:
        sim._run_lockstep(cfg, cfg.costs, 0, cfg.trials)
    finally:
        sys.setprofile(None)
    return count


def draw_calls(cfg: ExperimentConfig) -> int:
    """Generator calls made during one pass through the wrapped draw callables."""
    count = 0

    def counted(call):
        def wrapper(*args, **kwargs):
            nonlocal count
            count += 1
            return call(*args, **kwargs)
        return wrapper

    model_type, chunk = type(cfg.model), sim._lockstep_chunk
    base = model_type.__dict__["base_variate"]
    counted_base = counted(base.__func__)

    def counted_chunk(cfg, rule, draws, *args):
        # A recipe entry that is the base variate keeps its identity, so the
        # engine still gives it blocks of the same length.
        draws = tuple(counted_base if draw is base.__func__ else
                      counted(draw) if callable(draw) else draw for draw in draws)
        return chunk(cfg, rule, draws, *args)

    next32 = stream._Picks.next32

    def counted_next32(self, trials):
        nonlocal count
        # A trial reads a raw word exactly when it has no cached half.
        count += sum(self.half[t] < 0 for t in trials.tolist())
        return next32(self, trials)

    with patched((model_type, "base_variate", staticmethod(counted_base)),
                 (sim, "_lockstep_chunk", counted_chunk),
                 (stream._Picks, "next32", counted_next32)):
        sim._run_lockstep(cfg, cfg.costs, 0, cfg.trials)
    return count


def compactions(cfg: ExperimentConfig) -> int:
    """Calls of ``sim._LiveRows.keep`` during one pass."""
    count = 0
    keep = sim._LiveRows.keep

    def counted_keep(self, kept):
        nonlocal count
        count += 1
        return keep(self, kept)

    with patched((sim._LiveRows, "keep", counted_keep)):
        sim._run_lockstep(cfg, cfg.costs, 0, cfg.trials)
    return count


OPERATORS = {dis.opmap[name] for name in ("BINARY_SUBSCR", "STORE_SUBSCR", "BINARY_OP",
                                          "COMPARE_OP", "UNARY_NEGATIVE", "UNARY_INVERT")}


def operators(cfg: ExperimentConfig) -> int:
    """Operator and subscript instructions run in the package's code during one pass."""
    src = str(SRC)
    count = 0

    def per_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += frame.f_code.co_code[frame.f_lasti] in OPERATORS
        return per_opcode

    def per_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(src):
            return None
        frame.f_trace_opcodes = True
        return per_opcode

    sys.settrace(per_call)
    try:
        sim._run_lockstep(cfg, cfg.costs, 0, cfg.trials)
    finally:
        sys.settrace(None)
    return count


def stage_times(cfg: ExperimentConfig) -> tuple[float, float]:
    """Seconds one pass spends on its fixed work (generators, truth draws and
    each chunk's first block of draws), and seconds ``sim.aggregate`` takes
    on the pass's grid."""
    fixed, first_block = 0.0, False

    def timed(name):
        call = getattr(stream, name)

        def wrapper(*args):
            nonlocal fixed, first_block
            if name == "_base_blocks":
                if not first_block:
                    return call(*args)
                first_block = False
            elif name == "_trial_generators":
                first_block = True  # a new chunk
            start = time.perf_counter()
            try:
                return call(*args)
            finally:
                fixed += time.perf_counter() - start
        return wrapper

    names = ("_trial_generators", "_draw_truths", "_base_blocks")
    with patched(*((stream, name, timed(name)) for name in names)):
        grid = sim._run_grid(cfg, cfg.costs)
    start = time.perf_counter()
    sim.aggregate(grid, cfg.costs)
    return fixed, time.perf_counter() - start


def faster_half_mean(values: list[float]) -> float:
    fastest = sorted(values)[:len(values) // 2]
    return sum(fastest) / len(fastest)


def measure() -> list[dict]:
    rows = []
    for name in CONFIGS:
        for trials in TRIALS:
            per_pass, per_round, fixed, per_point = [], [], [], []
            for seed in SEEDS:
                cfg = config(name, trials, seed)
                one_pass(cfg)  # warm caches (generic tables, seeding check)
                best, rounds = min(one_pass(cfg) for _ in range(REPEATS))
                per_pass.append(best * 1e3)
                per_round.append(best / rounds * 1e6)
                stages = [stage_times(cfg) for _ in range(REPEATS)]
                fixed.append(min(stage[0] for stage in stages) / trials * 1e6)
                per_point.append(min(stage[1] for stage in stages) / len(cfg.costs) * 1e6)
            cfg = config(name, trials, 0)
            rounds = one_pass(cfg)[1]
            rows.append({
                "config": name,
                "trials": trials,
                "rounds": rounds,
                "ms_per_pass": round(faster_half_mean(per_pass), 3),
                "us_per_round": round(faster_half_mean(per_round), 2),
                "numpy_calls_per_round": round(numpy_calls(cfg) / rounds, 1),
                "operators_per_round": round(operators(cfg) / rounds, 1),
                "draw_calls_per_round": round(draw_calls(cfg) / rounds, 1),
                "compactions_per_pass": compactions(cfg),
                "fixed_us_per_trial": round(faster_half_mean(fixed), 2),
                "aggregate_us_per_point": round(faster_half_mean(per_point), 1),
            })
    return rows


def load_package(path: Path, name: str = "anomsearch_against"):
    """The ``anomsearch`` package under ``path/src`` (or ``path``), imported as ``name``."""
    src = path / "src" if (path / "src" / "anomsearch").is_dir() else path
    init = src / "anomsearch" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def compare(against: Path) -> list[dict]:
    """Per (config, trials): alternated pass times of this checkout and of ``against``."""
    sides = (anomsearch, load_package(against))
    rows = []
    for name in CONFIGS:
        for trials in TRIALS:
            times: tuple[list, list] = ([], [])
            identical = True
            for seed in SEEDS:
                cfgs = [config(name, trials, seed, package) for package in sides]
                runs = [cfgs]
                if sim.POLICIES[cfgs[0].policy].targets == "one":
                    runs.append([replace(cfg, diagnostics=True) for cfg in cfgs])
                for run in runs:
                    grids = [side.sim._run_grid(cfg, cfg.costs) for side, cfg in zip(sides, run)]
                    identical &= all(a is None and b is None or np.array_equal(a, b)
                                     for a, b in zip(*grids))
                for i in ((0, 1) if seed % 2 == 0 else (1, 0)):
                    engine = sides[i].sim
                    times[i].append(min(one_pass(cfgs[i], engine)[0] for _ in range(REPEATS)))
            this, other = (statistics.median(side) * 1e3 for side in times)
            ratio = statistics.median(a / b for a, b in zip(*times))
            rows.append({
                "config": name,
                "trials": trials,
                "this_ms": round(this, 3),
                "against_ms": round(other, 3),
                "ratio": round(ratio, 3),
                "wins": sum(a < b for a, b in zip(*times)),
                "seeds": len(SEEDS),
                "identical": identical,
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", action="store_true", help="print one JSON list instead")
    parser.add_argument("--against", type=Path, metavar="PATH",
                        help="compare pass times with the checkout at PATH")
    args = parser.parse_args(argv)
    if args.against is not None:
        rows = compare(args.against)
        status = 0 if all(row["identical"] for row in rows) else 1
        if args.json:
            print(json.dumps(rows))
            return status
        print(f"{'config':<23} {'trials':>6} {'this ms':>9} {'against ms':>10} {'ratio':>6} "
              f"{'wins':>7} {'identical':>9}")
        for row in rows:
            print(f"{row['config']:<23} {row['trials']:>6} {row['this_ms']:>9.3f} "
                  f"{row['against_ms']:>10.3f} {row['ratio']:>6.3f} "
                  f"{row['wins']:>3}/{row['seeds']:<3} {str(row['identical']):>9}")
        return status
    rows = measure()
    if args.json:
        print(json.dumps(rows))
        return 0
    print(f"{'config':<23} {'trials':>6} {'rounds':>6} {'ms/pass':>8} {'us/round':>9} "
          f"{'numpy calls/round':>18} {'operators/round':>16} {'draw calls/round':>17} "
          f"{'compactions/pass':>17} {'fixed us/trial':>15} {'aggregate us/point':>19}")
    for row in rows:
        print(f"{row['config']:<23} {row['trials']:>6} {row['rounds']:>6} "
              f"{row['ms_per_pass']:>8.3f} {row['us_per_round']:>9.2f} "
              f"{row['numpy_calls_per_round']:>18.1f} "
              f"{row['operators_per_round']:>16.1f} {row['draw_calls_per_round']:>17.1f} "
              f"{row['compactions_per_pass']:>17} {row['fixed_us_per_trial']:>15.2f} "
              f"{row['aggregate_us_per_point']:>19.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
