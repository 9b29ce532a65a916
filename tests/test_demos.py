"""Each script under ``demos/`` runs to its closing line in-process, and so
does each ``python`` example of the README."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"
CLOSING_LINES = {
    "policy_benchmark.py": "far from the asymptote at these costs, which is the expected regime.",
    "single_target_race.py": "stopped after ",
    "unknown_target_count.py": "full hypothesis separation.",
}


def test_every_demo_is_covered():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(CLOSING_LINES)


@pytest.mark.parametrize("name", sorted(CLOSING_LINES))
def test_demo_runs_to_its_closing_line(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    last = capsys.readouterr().out.splitlines()[-1]
    assert CLOSING_LINES[name] in last


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert blocks, "README.md has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "__main__"})
