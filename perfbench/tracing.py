"""Span tracing from outside the package, and the per-layer metrics it yields.

The benchmark never edits ``src/``. Instead :class:`Tracer` replaces, for
the duration of a traced pass, the module and class attributes through
which one layer calls the next (``sim.update``, ``policies.ranked_cells``,
``Exponential.sample`` and so on) with thin wrappers that record a span
around each call, then puts every original object back. The wrappers call
the original with the original arguments and return its result unchanged,
so they cannot touch the random stream: a traced run produces the same
``results.csv`` bytes as an untraced one.

Spans live in four flat integer arrays (name id, parent index, start and
end in ns) and are written out only at the end. Indices are allocated when
a span starts, so a parent always precedes its children.
"""

from __future__ import annotations

import csv
import gzip
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

_MISSING = object()

# Policies whose step function each traced workload may run, by the name
# under which sim imports it.
_STEP_FUNCTIONS = {
    "dgf": "dgf_step",
    "chernoff": "chernoff_step",
    "dgf_l": "dgfl_step",
    "seq_dgf_l": "seq_dgfl_step",
    "unknown_l": "unknownl_step",
    "chernoff_generic": "chernoff_generic_step",
}
REPORTED_POLICIES = ("dgf", "chernoff", "dgf_l", "unknown_l", "chernoff_generic")
MODEL_KINDS = ("exponential", "bernoulli")


class Tracer:
    """Records spans for wrapped callables and undoes its own patches."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patches: list[tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_index(self, name: str) -> int:
        """The id under which spans called ``name`` are stored."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A callable that runs ``fn`` inside a span called ``name``."""
        nid = self.name_index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``, remembering exactly what was there before."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first; safe to call more than once."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def install(self, modules: dict[str, Any]) -> None:
        """Wrap every layer boundary of the package.

        ``modules`` maps "sim", "state", "policies", "models", "rates" and
        "cli" to the imported modules, plus "numpy_random" for the
        generator constructor that sim calls as ``np.random.default_rng``.
        """
        sim, state, policies = modules["sim"], modules["state"], modules["policies"]
        models, rates, cli = modules["models"], modules["rates"], modules["cli"]

        def func(name: str, owner: Any, attr: str) -> None:
            self.patch(owner, attr, self.wrap(name, getattr(owner, attr)))

        func("sim.run_trial", sim, "run_trial")
        func("sim.rng_init", modules["numpy_random"], "default_rng")
        func("sim.aggregate", sim, "aggregate")
        self.patch(sim, "ProcessPoolExecutor", self._timed_pool(sim.ProcessPoolExecutor))

        func("state.init", sim, "SearchState")
        func("state.update", sim, "update")
        func("state.ranked_cells", policies, "ranked_cells")
        func("state.declare", state.SearchState, "declare")

        for policy, attr in _STEP_FUNCTIONS.items():
            func(f"policies.step.{policy}", sim, attr)
        config = policies.PolicyConfig
        self.patch(config, "for_model",
                   staticmethod(self.wrap("policies.config", config.for_model)))

        for cls in (models.Exponential, models.Bernoulli):
            kind = cls.__name__.lower()
            func(f"models.sample.{kind}", cls, "sample")
            func(f"models.llr.{kind}", cls, "llr")

        func("oracle.kl_table", sim, "hypothesis_action_kl")
        func("oracle.lp", sim, "maximin_action_distribution")

        for attr in ("rate_single", "rate_multi", "unknownl_lower_bound", "relative_loss"):
            func("rates.bound", cli, attr)
        func("rates.bound", rates.RateReport, "lower_bound_at")

    def _timed_pool(self, base: type) -> type:
        # Parent-side cost of one pool: construction, the submits (which
        # start the worker processes) and the shutdown that joins them.
        # Waiting on results is not included.
        return type("TimedPool", (base,), {
            "__init__": self.wrap("sim.pool_init", base.__init__),
            "submit": self.wrap("sim.pool_submit", base.submit),
            "shutdown": self.wrap("sim.pool_shutdown", base.shutdown),
        })

    def self_times(self) -> list[int]:
        return self_times(self.parent, self.start, self.end)

    def summarize(self) -> "Summary":
        """Per-name call counts, total and self ns, and trial durations."""
        selfs = self.self_times()
        out = Summary()
        trial_id = self._ids.get("sim.run_trial", -1)
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            dur = self.end[i] - self.start[i]
            out.calls[name] = out.calls.get(name, 0) + 1
            out.total_ns[name] = out.total_ns.get(name, 0) + dur
            out.self_ns[name] = out.self_ns.get(name, 0) + selfs[i]
            if nid == trial_id:
                out.trial_ns.append(dur)
        return out

    def write(self, path) -> None:
        """Write every span as gzipped CSV; ``root`` is the top-level span."""
        selfs = self.self_times()
        roots = array("q")
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("id", "root", "parent", "name", "start_ns", "end_ns", "self_ns"))
            for i, p in enumerate(self.parent):
                roots.append(i if p < 0 else roots[p])
                writer.writerow((i, roots[i], p, self.names[self.name_id[i]],
                                 self.start[i], self.end[i], selfs[i]))


def self_times(parent: Sequence[int], start: Sequence[int], end: Sequence[int]) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Overlapping children are counted once, and a child's time outside its
    parent's interval is ignored.
    """
    n = len(parent)
    children: dict[int, list[int]] = {}
    for i in range(n):
        if parent[i] >= 0:
            children.setdefault(parent[i], []).append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered = 0
        reach = lo_p
        for k in sorted(kids, key=start.__getitem__):
            lo, hi = max(start[k], reach), min(end[k], hi_p)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, min(end[k], hi_p))
        out[p] -= covered
    return out


@dataclass
class Summary:
    """Span totals of one traced round; rounds merge by addition."""

    calls: dict[str, int] = field(default_factory=dict)
    total_ns: dict[str, int] = field(default_factory=dict)
    self_ns: dict[str, int] = field(default_factory=dict)
    trial_ns: list[int] = field(default_factory=list)

    def merge(self, other: "Summary") -> None:
        for mine, theirs in ((self.calls, other.calls), (self.total_ns, other.total_ns),
                             (self.self_ns, other.self_ns)):
            for name, value in theirs.items():
                mine[name] = mine.get(name, 0) + value
        self.trial_ns.extend(other.trial_ns)

    def counts(self, truncations: int) -> dict[str, int]:
        """The exact work counts of one round."""
        c = self.calls.get
        steps = sum(c(f"policies.step.{p}", 0) for p in _STEP_FUNCTIONS)
        return {
            "count.trials": c("sim.run_trial", 0),
            "count.rounds": c("state.update", 0) + c("policies.step.chernoff_generic", 0),
            "count.observations": sum(c(f"models.sample.{k}", 0) for k in MODEL_KINDS),
            "count.policy_steps": steps,
            "count.declarations": c("state.declare", 0),
            "count.rng_inits": c("sim.rng_init", 0),
            "count.pool_spinups": c("sim.pool_init", 0),
            "count.truncations": truncations,
        }

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer times; a layer this workload never calls reads 0."""
        trials = self.calls.get("sim.run_trial", 0)

        def per_call(name: str, scale: float, use_self: bool = True) -> float:
            calls = self.calls.get(name, 0)
            ns = (self.self_ns if use_self else self.total_ns).get(name, 0)
            return ns / calls / scale if calls else 0.0

        def per_trial(names: Iterable[str], use_self: bool = False) -> float:
            ns = sum((self.self_ns if use_self else self.total_ns).get(n, 0) for n in names)
            return ns / trials / 1e3 if trials else 0.0

        out: dict[str, tuple[float, str]] = {}
        if len(self.trial_ns) >= 2:
            q = statistics.quantiles(self.trial_ns, n=100)
            out["sim.trial_us_p50"] = (q[49] / 1e3, "us")
            out["sim.trial_us_p99"] = (q[98] / 1e3, "us")
        else:
            out["sim.trial_us_p50"] = out["sim.trial_us_p99"] = (0.0, "us")
        out["sim.self_us_per_trial"] = (per_trial(["sim.run_trial"], use_self=True), "us")
        out["sim.rng_init_us_per_trial"] = (per_trial(["sim.rng_init"]), "us")
        out["sim.aggregate_ms_per_point"] = (per_call("sim.aggregate", 1e6), "ms")
        pools = self.calls.get("sim.pool_init", 0)
        pool_ns = sum(self.total_ns.get(f"sim.pool_{part}", 0)
                      for part in ("init", "submit", "shutdown"))
        out["sim.pool_ms_per_point"] = (pool_ns / pools / 1e6 if pools else 0.0, "ms")
        out["state.update_us"] = (per_call("state.update", 1e3), "us")
        out["state.ranked_cells_us"] = (per_call("state.ranked_cells", 1e3), "us")
        out["state.init_us"] = (per_call("state.init", 1e3), "us")
        for policy in REPORTED_POLICIES:
            out[f"policies.step_us.{policy}"] = (per_call(f"policies.step.{policy}", 1e3), "us")
        out["policies.config_us_per_trial"] = (per_trial(["policies.config"]), "us")
        counts = self.counts(0)
        rounds = counts["count.rounds"]
        out["policies.steps_per_round"] = (
            counts["count.policy_steps"] / rounds if rounds else 0.0, "ratio")
        for kind in MODEL_KINDS:
            out[f"models.sample_us.{kind}"] = (per_call(f"models.sample.{kind}", 1e3), "us")
            out[f"models.llr_us.{kind}"] = (per_call(f"models.llr.{kind}", 1e3), "us")
        points = self.calls.get("sim.aggregate", 0)
        rates_ns = self.self_ns.get("rates.bound", 0)
        out["rates.bound_us"] = (rates_ns / points / 1e3 if points else 0.0, "us")
        out["cli.emit_ms"] = (per_call("cli.emit", 1e6, use_self=False), "ms")
        return out


def oracle_metrics(summary: Summary) -> dict[str, tuple[float, str]]:
    """LP and KL-table cost of the lazy first-use set-up."""
    return {
        "oracle.lp_ms": (summary.total_ns.get("oracle.lp", 0) / 1e6, "ms"),
        "oracle.kl_table_ms": (summary.total_ns.get("oracle.kl_table", 0) / 1e6, "ms"),
        "oracle.lp_solves": (summary.calls.get("oracle.lp", 0), "count"),
    }
