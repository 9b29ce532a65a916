"""``tools/code_lines.py`` counts code lines without comments, blanks or docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# A comment line.
TABLE = {
    "a": 1,

    "b": """a string over
two lines""",
}


def f(x):
    """Function docstring."""
    # Another comment.
    return (x
            + math.pi)
'''


def load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_a_sample_source():
    # Code lines: the import, the five lines of TABLE that hold tokens (not
    # the blank line inside it), the def and both lines of the return.
    assert load_code_lines().count(SAMPLE) == (19, 9)


def test_counts_every_module_of_the_package():
    tool = load_code_lines()
    counts = tool.package_counts()
    assert set(counts) >= {"__init__", "cli", "sim", "rates"}
    assert all(0 < code < physical for physical, code in counts.values())
