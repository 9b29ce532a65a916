"""Count the physical and code lines of each module of ``src/anomsearch``.

A code line is a line that holds part of a token other than a comment, a
line break, an indent or a dedent, and that is not part of a docstring: a
string token that is a whole statement, such as a module, class or function
docstring. Blank lines and comment-only lines are left out too. A string or
an expression that spans several lines counts each line it spans.

Run ``python3 tools/code_lines.py``. It prints one row per module, largest
first, and the totals. It uses the standard library only and reads the
modules next to this file, so a copy of this script in another checkout
counts that checkout.
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anomsearch"

# Tokens that carry no code: layout and comments.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
# Tokens after which a string token starts a statement.
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of Python ``source``."""
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and (i == 0 or tokens[i - 1].type in _STATEMENT_START)
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a docstring, or another string that is a whole statement
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(lines)


def package_counts() -> dict[str, tuple[int, int]]:
    """(physical, code) lines per module name of the package, largest first."""
    counts = {path.stem: count(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    return dict(sorted(counts.items(), key=lambda item: (-item[1][1], item[0])))


def main() -> int:
    counts = package_counts()
    total = tuple(sum(column) for column in zip(*counts.values()))
    print(f"{'module':<10} {'physical':>8} {'code':>6}")
    for name, (physical, code) in counts.items():
        print(f"{name:<10} {physical:>8} {code:>6}")
    print(f"{'total':<10} {total[0]:>8} {total[1]:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
