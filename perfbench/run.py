#!/usr/bin/env python3
"""anomsearch benchmark: trials/s, set-up time and memory per workload, plus a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload short_trials --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --pin               # re-pin digests and counts

With ``--trace 0`` the run reports the end-to-end metrics (``trials_per_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it reports the per-layer
metrics of a traced run. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Outputs and span dumps go under ``.bench_out/``. See
``perfbench/README.md`` for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

# Fresh interpreters timed per run for setup_s (the median is reported).
SETUP_PROBES = 7
TRACE_SETUP_PROBES = 3
# The calibration loop runs this many steps between passes, about 10-20 ms.
CALIBRATION_STEPS = 2500
# Calibration speed, in steps/s, at which trials_per_s is quoted: about the
# speed of the loop on the machine the benchmark was tuned on when that
# machine runs at its usual (slower) pace.
REFERENCE_SPEED = 130_000.0
# Set-up time moves with the calibration speed to this power: fitted across
# twelve runs on that machine (correlation 0.8). Import work gains less from
# the CPU's fast state than the calibration loop does.
SETUP_SPEED_EXPONENT = 0.6
PROBE_TIMEOUT_S = 120


def _require_program() -> None:
    if not (SRC / "anomsearch" / "__init__.py").is_file():
        print(f"error: {SRC / 'anomsearch'} not found; run the benchmark from a "
              "checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def program_modules() -> dict:
    """The package's layer modules, for :meth:`tracing.Tracer.install`."""
    import numpy.random

    from anomsearch import cli, models, policies, rates, sim, state

    return {"cli": cli, "sim": sim, "state": state, "policies": policies,
            "models": models, "rates": rates, "numpy_random": numpy.random}


def set_up(workload: Workload, seed: int, tracer: tracing.Tracer | None = None):
    """Import, resolve every config and do the lazy first-use work.

    This is what a user pays before the first trial of a CLI run. The
    first-use step runs each config at one trial, which builds the oracle
    LP tables where a policy needs them. Returns the resolved specs and the
    time of each phase.
    """
    t0 = time.perf_counter()
    import anomsearch.cli as cli

    t1 = time.perf_counter()
    if tracer is not None:
        tracer.install(program_modules())
    specs = [(label, cli.resolve_config(layer)) for label, layer in workload.layers(seed)]
    t2 = time.perf_counter()
    for _, layer in workload.layers(seed):
        cli.run_spec(cli.resolve_config(layer, {"trials": 1}))
    t3 = time.perf_counter()
    return specs, {"cli.import_s": t1 - t0, "cli.resolve_ms": (t2 - t1) * 1e3,
                   "first_use_ms": (t3 - t2) * 1e3}


@dataclass(frozen=True)
class _Probe:
    cells: tuple[int, ...]


def cpu_speed(steps: int = CALIBRATION_STEPS) -> float:
    """Steps per second of a fixed loop built like one probing round.

    Each step ranks six sums, builds a frozen probe record, draws and
    validates two observations and folds their logs back in; every tenth
    step constructs a fresh generator, as a new trial does. The loop uses no
    code of the package, so no change to the program moves it, and its
    speed tracks how fast this CPU runs such interpreter-bound code now.
    """
    import numpy as np

    s = [0.0] * 6
    rng = None
    t0 = time.perf_counter()
    for i in range(steps):
        if i % 10 == 0:
            rng = np.random.default_rng([12345, i])
        order = sorted(range(6), key=s.__getitem__, reverse=True)
        probe = _Probe(tuple(order[1:3]))
        obs = {cell: rng.standard_exponential() for cell in sorted(probe.cells)}
        if set(probe.cells) != set(obs):
            raise AssertionError("unreachable: one observation per probed cell")
        for cell in probe.cells:
            s[cell] += math.log(obs[cell] + 0.5) - 0.1
    return steps / (time.perf_counter() - t0)


def run_pass(cli, specs, workers: int, out_dir: Path,
             tracer: tracing.Tracer | None = None) -> float:
    """One pass: run_spec plus emit_results for every config; returns wall seconds."""
    run_spec, emit = cli.run_spec, cli.emit_results
    if tracer is not None:
        run_spec = tracer.wrap("cli.run_spec", run_spec)
        emit = tracer.wrap("cli.emit", emit)
    t0 = time.perf_counter()
    for label, spec in specs:
        rows = run_spec(spec, workers=workers)
        emit(rows, spec, out_dir / label)
    return time.perf_counter() - t0


@dataclass
class Outcome:
    """Trial accounting and check results accumulated over a run's passes."""

    workload: Workload
    seed: int
    pinned: dict
    numpy_version: str
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    statuses: dict[str, str] = field(default_factory=dict)
    _seen: dict[tuple[str, int], str] = field(default_factory=dict)

    def record(self, specs, out_dir: Path) -> int:
        """Check one finished pass; returns the truncations it had.

        Every pass at one seed must give the same results.csv; digests and
        their pinned status are reported for the run's own seed.
        """
        trials = self.workload.trials_per_pass()
        self.attempted += trials
        problems: list[str] = []
        truncated = 0
        for label, spec in specs:
            path = out_dir / label / "results.csv"
            digest = checks.sha256(path)
            truncated += checks.truncations(path)
            problems += checks.row_problems(path, spec.trials)
            key = (label, spec.seed)
            if key in self._seen:
                if digest != self._seen[key]:
                    problems.append(f"{label}: results.csv differs between passes at seed "
                                    f"{spec.seed}")
                continue
            self._seen[key] = digest
            status = checks.digest_status(digest, self.pinned, self.workload.name, label,
                                          spec.seed, self.numpy_version)
            if spec.seed == self.seed:
                self.digests[label] = digest
                self.statuses[label] = status
            if status == checks.MISMATCH:
                problems.append(f"{label}: results.csv digest {digest} at seed {spec.seed} "
                                "differs from the pinned one")
        if problems:
            self.failed += trials
            self.problems += [p for p in problems if p not in self.problems]
        return truncated

    def crashed(self) -> None:
        trials = self.workload.trials_per_pass()
        self.attempted += trials
        self.failed += trials
        self.problems.append("a pass raised; traceback on stderr")

    @property
    def correct(self) -> bool:
        return not self.problems


def measure_setup(workload: Workload, seed: int, trace: bool, probes: int):
    """Run ``probes`` fresh interpreters through :func:`set_up`.

    Returns the wall time of each, from process start until it reports
    ready, and the phase times each reported.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
           workload.name, "--seed", str(seed), "--trace", str(int(trace))]
    walls, phases = [], []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        walls.append(wall)
        phases.append(json.loads(line))
    return walls, phases


def probe_main(workload: Workload, seed: int, trace: bool) -> None:
    tracer = tracing.Tracer() if trace else None
    try:
        _, phases = set_up(workload, seed, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        phases.update({k: v for k, (v, _) in
                       tracing.oracle_metrics(tracer.summarize()).items()})
    print(json.dumps(phases), flush=True)


def environment(pinned: dict) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "numpy_matches_pinned": numpy.__version__ == pinned.get("numpy"),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_end_to_end(workload: Workload, seed: int, seconds: float, pinned: dict,
                       out_dir: Path) -> tuple[Outcome, dict, dict]:
    """Untraced run: passes for ``seconds``, with set-up probes spread among them.

    Pass k runs every config at seed ``seed + k``, so pass 0 is the run's
    own seed and the one the pinned digests apply to.

    Each pass is bracketed by the calibration loop. Its rate is rescaled by
    REFERENCE_SPEED over the mean calibration speed on either side, which
    takes out most of the drift of this CPU's speed between and within
    runs; the median over passes is reported. A single set-up probe does
    not track the calibration loop, but a run's probes together follow the
    run's median calibration speed, so setup_s is the probes' median
    rescaled by that speed to the power SETUP_SPEED_EXPONENT.
    """
    set_up(workload, seed)
    import anomsearch.cli as cli
    import numpy

    outcome = Outcome(workload, seed, pinned, numpy.__version__)
    trials = workload.trials_per_pass()
    raw, scaled, walls, speeds = [], [], [], []
    busy = 0.0
    before = None
    while True:
        # Spread the set-up probes over the run, so that they sample the
        # same spells of CPU speed as the passes do.
        if len(walls) < SETUP_PROBES and busy >= len(walls) * seconds / SETUP_PROBES:
            walls += measure_setup(workload, seed, trace=False, probes=1)[0]
            before = None
        # Pass k runs at seed + k: a run's median then averages over many
        # seeds, whose trials differ in length, instead of resting on one.
        specs = [(label, cli.resolve_config(layer))
                 for label, layer in workload.layers(seed + len(raw))]
        t0 = time.perf_counter()
        if before is None:
            before = cpu_speed()
        try:
            wall = run_pass(cli, specs, 1, out_dir)
        except Exception:
            traceback.print_exc()
            outcome.crashed()
            break
        after = cpu_speed()
        speeds.append(after)
        outcome.record(specs, out_dir)
        raw.append(trials / wall)
        scaled.append(trials / wall * REFERENCE_SPEED / ((before + after) / 2.0))
        before = after
        busy += time.perf_counter() - t0
        if busy >= seconds and len(walls) == SETUP_PROBES:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    speed = statistics.median(speeds) if speeds else REFERENCE_SPEED
    setup = statistics.median(walls) if walls else 0.0
    metrics = {
        "trials_per_s": _metric(statistics.median(scaled) if scaled else 0.0, "trials/s"),
        "setup_s": _metric(setup * (speed / REFERENCE_SPEED) ** SETUP_SPEED_EXPONENT, "s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }
    extra = {
        "passes": len(raw),
        "trials_per_pass": trials,
        "raw_trials_per_s_median": statistics.median(raw) if raw else 0.0,
        "raw_setup_s_median": setup,
        "setup_s_probes": walls,
        "calibration_median": speed,
    }
    return outcome, metrics, extra


def _round(cli, specs, workload: Workload, out_dir: Path, outcome: Outcome, modules: dict,
           traced: bool):
    """One pass per worker count in ``workload.trace_workers``, each checked.

    Returns the wall time per worker count, the tracer (None if untraced)
    and the truncations of the one-worker pass, whose trials the spans see.
    """
    tracer = tracing.Tracer() if traced else None
    walls, truncated = {}, 0
    if tracer is not None:
        tracer.install(modules)
    try:
        for workers in workload.trace_workers:
            walls[workers] = run_pass(cli, specs, workers, out_dir, tracer)
            found = outcome.record(specs, out_dir)
            if workers == 1:
                truncated += found
    finally:
        if tracer is not None:
            tracer.restore()
    return walls, tracer, truncated


def measure_traced(workload: Workload, seed: int, seconds: float, pinned: dict,
                   out_dir: Path) -> tuple[Outcome, dict, dict]:
    """Traced run: per-layer metrics, exact counts and the tracing overhead.

    Untraced and traced rounds alternate (see :func:`_round`) for at least
    two of each and until ``seconds`` have elapsed. Every pass is checked
    like an untraced one, so a traced results.csv must equal the untraced
    one byte for byte, and the counts must repeat exactly in every traced
    round. Set-up metrics come from traced fresh interpreters. The spans of
    the first traced round are written to ``spans.csv.gz``.
    """
    _, probes = measure_setup(workload, seed, trace=True, probes=TRACE_SETUP_PROBES)
    specs, _ = set_up(workload, seed)
    import anomsearch.cli as cli
    import numpy

    modules = program_modules()
    outcome = Outcome(workload, seed, pinned, numpy.__version__)
    merged = tracing.Summary()
    first: tuple[tracing.Tracer, dict] | None = None
    traced_walls, plain_walls, efficiency = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced_walls) < 2 or time.perf_counter() < deadline:
        order = (False, True) if len(traced_walls) % 2 == 0 else (True, False)
        try:
            rounds = {traced: _round(cli, specs, workload, out_dir, outcome, modules, traced)
                      for traced in order}
        except Exception:
            traceback.print_exc()
            outcome.crashed()
            break
        plain = rounds[False][0]
        walls, tracer, truncated = rounds[True]
        summary = tracer.summarize()
        merged.merge(summary)
        counts = summary.counts(truncated)
        if first is None:
            first = (tracer, counts)
        elif counts != first[1]:
            outcome.problems.append(f"counts differ between traced rounds: {first[1]} vs {counts}")
            break
        traced_walls.append(sum(walls.values()))
        plain_walls.append(sum(plain.values()))
        if 2 in plain:
            efficiency.append(plain[1] / (2.0 * plain[2]))

    metrics = {k: _metric(v, u) for k, (v, u) in merged.layer_metrics().items()}
    metrics["sim.parallel_efficiency"] = _metric(
        statistics.median(efficiency) if efficiency else 0.0, "ratio")
    for key, unit in (("oracle.lp_ms", "ms"), ("oracle.kl_table_ms", "ms"),
                      ("cli.import_s", "s"), ("cli.resolve_ms", "ms")):
        metrics[key] = _metric(statistics.median(p[key] for p in probes), unit)
    solves = {p["oracle.lp_solves"] for p in probes}
    if len(solves) != 1:
        outcome.problems.append(f"oracle LP solve counts differ between set-ups: {solves}")
    metrics["oracle.lp_solves"] = _metric(min(solves), "count")
    counts = first[1] if first is not None else {}
    for name, value in counts.items():
        metrics[name] = _metric(value, "count")
    overhead = (statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
                if traced_walls else 0.0)
    metrics["trace.overhead_frac"] = _metric(overhead, "fraction")

    extra = {"rounds": len(traced_walls), "spans": 0, "counts_vs_pinned": "not compared"}
    pinned_counts = pinned.get("workloads", {}).get(workload.name, {}).get("counts")
    if pinned_counts and seed == pinned.get("seed") and outcome.numpy_version == pinned.get("numpy"):
        extra["counts_vs_pinned"] = "match" if pinned_counts == counts else "differ"
    if first is not None:
        extra["spans"] = len(first[0])
        first[0].write(out_dir.parent / "spans.csv.gz")
    return outcome, metrics, extra


def run_one(workload: Workload, seed: int, seconds: float, trace: bool,
            pinned: dict) -> tuple[Outcome, dict, dict]:
    OUT.mkdir(exist_ok=True)
    out_dir = OUT / workload.name / f"pass-{os.getpid()}"
    try:
        measure = measure_traced if trace else measure_end_to_end
        return measure(workload, seed, seconds, pinned, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def report(workload: Workload, seed: int, trace: bool, outcome: Outcome,
           metrics: dict, extra: dict, env: dict) -> dict:
    """Print the human-readable lines and save the full record; returns the result."""
    result = {"correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}")
    print("environment: " + json.dumps(env))
    for label, status in outcome.statuses.items():
        print(f"output check {label}: {status}; digest {outcome.digests[label]}")
    for problem in outcome.problems:
        print(f"FAILED CHECK: {problem}")
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<{width}}  {outcome.failed / max(outcome.attempted, 1):.6g} "
          f"fraction ({outcome.failed}/{outcome.attempted} trials)")
    for key, value in extra.items():
        print(f"  ({key}: {value})")
    record = {"workload": workload.name, "seed": seed, "trace": int(trace),
              "environment": env, "digests": outcome.digests,
              "output_check": outcome.statuses, "problems": outcome.problems,
              "extra": extra, **result}
    path = OUT / workload.name / f"result-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return result


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; one table, then the combined result."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        if result is None:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
        rows.append((name, result))
    print(f"{'workload':<14} {'trials_per_s':>16} {'setup_s':>10} {'peak_rss_mb':>13} "
          f"{'failed_frac':>12}")
    for name, r in rows:
        m = r["metrics"]
        print(f"{name:<14} {m['trials_per_s']['value']:>9.1f} trials/s "
              f"{m['setup_s']['value']:>8.3f} s {m['peak_rss_mb']['value']:>10.1f} MB "
              f"{r['failed'] / r['attempted']:>12.4g}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def pin() -> int:
    """Re-pin digests and counts at the default seed under this NumPy."""
    import numpy

    pinned = {"seed": DEFAULT_SEED, "numpy": numpy.__version__, "workloads": {}}
    for workload in WORKLOADS.values():
        outcome, metrics, _ = run_one(workload, DEFAULT_SEED, 0.0, True, {})
        if not outcome.correct:
            print(f"{workload.name}: {outcome.problems}", file=sys.stderr)
            return 1
        pinned["workloads"][workload.name] = {
            "digests": outcome.digests,
            "counts": {k: m["value"] for k, m in metrics.items() if k.startswith("count.")},
        }
    checks.PINNED_PATH.write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {checks.PINNED_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin results.csv digests and counts at the default seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _require_program()
    if args.pin:
        return pin()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        probe_main(workload, args.seed, bool(args.trace))
        return 0
    pinned = checks.load_pinned()
    env = environment(pinned)
    outcome, metrics, extra = run_one(workload, args.seed, args.seconds, bool(args.trace), pinned)
    result = report(workload, args.seed, bool(args.trace), outcome, metrics, extra, env)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
