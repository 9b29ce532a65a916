"""Benchmark workloads: which run configurations each one drives, and why.

A workload is a fixed list of run configurations (one ``RunSpec`` each, fed
through ``anomsearch.cli.resolve_config``) plus the worker count. One *pass*
runs every configuration once through ``run_spec`` and ``emit_results``.
The only input that varies with ``--seed`` is the Monte Carlo master seed,
which fixes every variate of every trial; the scenario, grid and trial
counts are part of the workload's definition, so each pass at one seed does
exactly the same work.

Scenarios are spelled out here rather than read from ``cli.PRESETS`` so
that editing a preset cannot silently change what the benchmark measures.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any

DEFAULT_SEED = 271_828

_FIG2 = {
    "M": 5, "K": 1, "L": 1,
    "model": {"kind": "exponential", "lambda_f": 0.5, "lambda_g": 10.0},
    "neg_log_c": [1.0, 2.0, 3.0, 4.0, 5.0],
}
_TABLE1 = {
    "M": 3, "K": 1, "L": 2,
    "model": {"kind": "bernoulli", "p_f": 0.1, "p_g": 0.6},
    "neg_log_c": [8.0],
    "fixed_hypothesis": [0],
}
_DGF_L = {
    "M": 8, "K": 3, "L": 2,
    "model": {"kind": "bernoulli", "p_f": 0.1, "p_g": 0.4},
    "neg_log_c": [8.0],
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``specs`` maps a label (used to name output directories and pinned
    digests) to a config layer for ``resolve_config``, without the seed.
    Timed passes run on one process. ``trace_workers`` lists the worker
    counts of the passes in one traced round; a count above 1 exercises the
    process-pool branch of ``sim.run_trials``, whose trial spans run in the
    workers and are not collected.
    """

    name: str
    specs: tuple[tuple[str, dict[str, Any]], ...]
    trace_workers: tuple[int, ...] = (1,)

    def layers(self, seed: int) -> list[tuple[str, dict[str, Any]]]:
        """(label, config layer) pairs for ``seed``; a fresh copy each call."""
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        return [(label, {**copy.deepcopy(layer), "seed": seed}) for label, layer in self.specs]

    def trials_per_pass(self) -> int:
        return sum(layer["trials"] * len(layer["neg_log_c"]) * len(layer["policies"])
                   for _, layer in self.specs)


WORKLOADS: dict[str, Workload] = {
    # Fig. 2 scenario, dgf only: about 5 rounds per trial, so the fixed cost
    # of each trial (generator construction, policy config, state) dominates.
    # Stands in for the acceptance fixtures that take most of Tier-1 time.
    # Its traced run also runs each round on two worker processes, which
    # measures the pool branch (one pool per grid point): a timed
    # multi-process workload did not run steadily on a 2-core machine.
    "short_trials": Workload(
        name="short_trials",
        specs=(("fig2_dgf", {**_FIG2, "policies": ["dgf"], "trials": 200}),),
        trace_workers=(1, 2),
    ),
    # Deterministic policies with about 42 rounds per trial: per-round work
    # (policy step, ranking, sampling, LLR update) dominates.
    "long_trials": Workload(
        name="long_trials",
        specs=(
            ("dgf_l", {**_DGF_L, "policies": ["dgf_l"], "trials": 100}),
            ("table1_unknown_l", {**_TABLE1, "policies": ["unknown_l"], "trials": 120}),
        ),
    ),
    # Randomized Chernoff tests: policy draws are interleaved with the
    # observation stream, and chernoff_generic is the only user of the
    # oracle LP tables and skips SearchState entirely.
    "randomized": Workload(
        name="randomized",
        specs=(
            ("fig2_chernoff", {**_FIG2, "policies": ["chernoff"], "trials": 100}),
            ("table1_chernoff_generic",
             {**_TABLE1, "policies": ["chernoff_generic"], "trials": 120}),
        ),
    ),
}
