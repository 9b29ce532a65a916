"""``tools/round_cost.py``: its probes run, and ``--against`` gates byte
identity by its exit status.

The probes patch private names of ``sim`` and ``stream`` (``_lockstep_chunk``
and its argument order, ``_LiveRows.keep``, ``_Picks.next32``,
``_trial_generators``, ``_draw_truths``, ``_base_blocks``), so one test runs
each probe on every config at one trial, and ``compare`` against this same
checkout at one trial and two seeds, whose rows must all read ``identical
True``. A full comparison takes minutes, so the exit-status test stubs
``compare`` with rows as it returns them and checks only how ``main``
reports them: exit 0 when every row reads ``identical True``, 1 when any
reads False, with and without ``--json``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "round_cost.py"


def load_round_cost(monkeypatch):
    """tools/round_cost.py as a module; it puts src/ and perfbench/ on
    sys.path, undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("round_cost", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def second_copy():
    """Drops, after the test, the package that ``compare`` imports a second time."""
    yield
    for name in [name for name in sys.modules if name.partition(".")[0] == "anomsearch_against"]:
        del sys.modules[name]


def test_probes_run_and_a_checkout_matches_itself(monkeypatch, second_copy):
    tool = load_round_cost(monkeypatch)
    for name in tool.CONFIGS:
        cfg = tool.config(name, 1, 0)
        seconds, rounds = tool.one_pass(cfg)
        assert seconds > 0 and rounds >= 1
        for probe in (tool.numpy_calls, tool.operators, tool.draw_calls):
            assert probe(cfg) >= 1, (name, probe.__name__)
        assert tool.compactions(cfg) >= 0  # a lone trial's row ends with its chunk
        fixed, aggregate = tool.stage_times(cfg)
        assert fixed > 0 and aggregate > 0
    for key, value in (("TRIALS", (1,)), ("SEEDS", range(2)), ("REPEATS", 1)):
        monkeypatch.setattr(tool, key, value)
    rows = tool.compare(tool.ROOT)
    assert [(row["config"], row["trials"], row["seeds"]) for row in rows] == [
        (name, 1, 2) for name in tool.CONFIGS]
    assert all(row["identical"] is True for row in rows)


def row(config, identical):
    return {"config": config, "trials": 100, "this_ms": 1.0, "against_ms": 1.0, "ratio": 1.0,
            "wins": 10, "seeds": 20, "identical": identical}


@pytest.mark.parametrize("as_json", [False, True], ids=["table", "json"])
@pytest.mark.parametrize("identical, status", [((True, True), 0), ((True, False), 1),
                                               ((False, False), 1)])
def test_against_exits_1_when_any_row_differs(identical, status, as_json, monkeypatch, capsys):
    tool = load_round_cost(monkeypatch)
    rows = [row(name, same) for name, same in zip(("fig2_dgf", "dgf_l"), identical)]
    compared = []

    def fake_compare(against):
        compared.append(against)
        return rows

    monkeypatch.setattr(tool, "compare", fake_compare)
    argv = ["--against", "elsewhere"] + (["--json"] if as_json else [])
    assert tool.main(argv) == status
    assert compared == [Path("elsewhere")]
    out = capsys.readouterr().out
    if as_json:
        assert json.loads(out) == rows
    else:
        lines = out.splitlines()
        assert len(lines) == 1 + len(rows)
        assert [line.split()[-1] for line in lines[1:]] == [str(same) for same in identical]
