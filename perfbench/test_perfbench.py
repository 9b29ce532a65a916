"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repository root)."""

from __future__ import annotations

from pathlib import Path

import pytest

import checks
import run
import tracing
from workloads import WORKLOADS, Workload

run._require_program()

from anomsearch import cli, models, policies, rates, sim, state  # noqa: E402

TINY = Workload(
    name="tiny",
    specs=(
        ("fig2", {"M": 5, "K": 1, "L": 1, "policies": ["dgf", "chernoff"], "trials": 30,
                  "model": {"kind": "exponential", "lambda_f": 0.5, "lambda_g": 10.0},
                  "neg_log_c": [3.0, 5.0]}),
        ("table1", {"M": 3, "K": 1, "L": 2, "policies": ["unknown_l", "chernoff_generic"],
                    "trials": 20, "model": {"kind": "bernoulli", "p_f": 0.1, "p_g": 0.6},
                    "neg_log_c": [4.0], "fixed_hypothesis": [0]}),
    ),
)


def _pass(workload: Workload, seed: int, out_dir: Path, tracer=None):
    specs = [(label, cli.resolve_config(layer)) for label, layer in workload.layers(seed)]
    if tracer is not None:
        tracer.install(run.program_modules())
    try:
        run.run_pass(cli, specs, 1, out_dir, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    return specs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_generation_is_deterministic_in_the_seed(name):
    workload = WORKLOADS[name]
    first, again, other = workload.layers(7), workload.layers(7), workload.layers(8)
    assert first == again
    assert first != other
    assert [dict(layer, seed=0) for _, layer in first] == \
        [dict(layer, seed=0) for _, layer in other]
    specs = [cli.resolve_config(layer) for _, layer in first]
    assert specs == [cli.resolve_config(layer) for _, layer in again]
    assert {spec.seed for spec in specs} == {7}
    first[0][1]["neg_log_c"].append(99.0)
    assert workload.layers(7) == again, "layers() must hand out copies"


def test_same_seed_gives_identical_outputs(tmp_path):
    _pass(TINY, 3, tmp_path / "a")
    _pass(TINY, 3, tmp_path / "b")
    _pass(TINY, 4, tmp_path / "c")
    for label, _ in TINY.specs:
        a, b, c = (checks.sha256(tmp_path / d / label / "results.csv") for d in "abc")
        assert a == b != c


def test_digest_check_rejects_a_one_byte_change(tmp_path):
    specs = _pass(TINY, 3, tmp_path)
    path = tmp_path / "fig2" / "results.csv"
    digest = checks.sha256(path)
    pinned = {"seed": 3, "numpy": "1.0", "workloads": {"tiny": {"digests": {"fig2": digest}}}}
    assert checks.digest_status(digest, pinned, "tiny", "fig2", 3, "1.0") == checks.MATCHED
    assert checks.digest_status(digest, pinned, "tiny", "fig2", 4, "1.0") == checks.NOT_PINNED
    assert checks.digest_status(digest, pinned, "tiny", "fig2", 3, "2.0") == \
        checks.STREAM_CHANGED

    data = bytearray(path.read_bytes())
    i = data.index(b"\n") + 1  # first byte of the first data row
    data[i] ^= 0x01
    path.write_bytes(bytes(data))
    assert checks.digest_status(checks.sha256(path), pinned, "tiny", "fig2", 3, "1.0") == \
        checks.MISMATCH

    outcome = run.Outcome(TINY, 3, pinned, "1.0")
    outcome.record(specs, tmp_path)
    assert not outcome.correct
    assert outcome.failed == outcome.attempted == TINY.trials_per_pass()


def test_row_invariants(tmp_path):
    _pass(TINY, 3, tmp_path)
    path = tmp_path / "fig2" / "results.csv"
    assert checks.row_problems(path, 30) == []
    assert checks.row_problems(path, 31)
    header, first, *rest = path.read_text().splitlines()
    cols = header.split(",")
    bad_rows = {
        "truncations": "1",
        "mean_tau": "nan",
        "p_e": "0.9",  # breaks the criterion 02 bound at -log c = 3
    }
    for column, value in bad_rows.items():
        fields = first.split(",")
        fields[cols.index(column)] = value
        path.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        assert checks.row_problems(path, 30), column


def test_self_time_arithmetic_on_a_synthetic_tree():
    # 0 root [0, 100]
    #   1 a [10, 40]        2 a.x [20, 30]
    #   3 b [50, 90]        4 c [80, 95] overlaps b and runs past b's end
    #   5 d [95, 110] runs past the root's end
    parent = [-1, 0, 1, 0, 0, 0]
    start = [0, 10, 20, 50, 80, 95]
    end = [100, 40, 30, 90, 95, 110]
    assert tracing.self_times(parent, start, end) == [
        100 - (30 + 45 + 5),  # children cover [10, 40] and [50, 95] and [95, 100]
        30 - 10,
        10,
        40,
        15,
        15,
    ]


def test_summary_metrics_on_a_synthetic_tracer():
    tracer = tracing.Tracer()
    spans = [
        ("sim.run_trial", -1, 0, 10_000),
        ("policies.step.dgf", 0, 1_000, 3_000),
        ("state.ranked_cells", 1, 1_500, 2_500),
        ("state.update", 0, 4_000, 6_000),
        ("models.llr.exponential", 3, 5_000, 5_500),
        ("policies.step.dgf", 0, 7_000, 8_000),
    ]
    for name, parent, lo, hi in spans:
        tracer.name_id.append(tracer.name_index(name))
        tracer.parent.append(parent)
        tracer.start.append(lo)
        tracer.end.append(hi)
    summary = tracer.summarize()
    assert summary.calls["policies.step.dgf"] == 2
    assert summary.self_ns["policies.step.dgf"] == 1_000 + 1_000
    assert summary.self_ns["sim.run_trial"] == 10_000 - 2_000 - 2_000 - 1_000
    metrics = summary.layer_metrics()
    assert metrics["policies.step_us.dgf"] == (1.0, "us")
    assert metrics["state.update_us"] == (1.5, "us")
    assert metrics["policies.steps_per_round"] == (2.0, "ratio")
    assert summary.counts(0)["count.rounds"] == 1


def _owners():
    return [sim, policies, cli, rates, state, run.program_modules()["numpy_random"],
            state.SearchState, policies.PolicyConfig, models.Exponential, models.Bernoulli,
            rates.RateReport]


def test_install_and_restore_leave_every_attribute_as_found():
    before = [dict(vars(owner)) for owner in _owners()]
    tracer = tracing.Tracer()
    tracer.install(run.program_modules())
    try:
        assert sim.update is not before[0]["update"]
        assert "sample" in vars(models.Exponential)
    finally:
        tracer.restore()
    after = [dict(vars(owner)) for owner in _owners()]
    for old, new, owner in zip(before, after, _owners()):
        assert old.keys() == new.keys(), owner
        changed = [k for k in old if old[k] is not new[k]]
        assert not changed, (owner, changed)
    tracer.restore()  # idempotent


def test_tracing_does_not_perturb_results_and_counts_repeat(tmp_path):
    _pass(TINY, 5, tmp_path / "plain")
    tracers = [tracing.Tracer(), tracing.Tracer()]
    for i, tracer in enumerate(tracers):
        _pass(TINY, 5, tmp_path / f"traced{i}", tracer)
    for label, _ in TINY.specs:
        digests = {checks.sha256(tmp_path / d / label / "results.csv")
                   for d in ("plain", "traced0", "traced1")}
        assert len(digests) == 1, label
    counts = [t.summarize().counts(0) for t in tracers]
    assert counts[0] == counts[1]
    assert counts[0]["count.trials"] == TINY.trials_per_pass()
    assert counts[0]["count.rng_inits"] == TINY.trials_per_pass()
    assert counts[0]["count.rounds"] > 0


def test_pinned_file_covers_every_workload():
    pinned = checks.load_pinned()
    assert pinned["seed"] == run.DEFAULT_SEED
    for name, workload in WORKLOADS.items():
        entry = pinned["workloads"][name]
        assert set(entry["digests"]) == {label for label, _ in workload.specs}
        assert entry["counts"]["count.trials"] > 0


def test_missing_program_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run._require_program()
    assert exc.value.code != 0

