"""Output checks for one pass: pinned digests at the default seed, row invariants always.

NumPy's policy (NEP 19) lets ``Generator`` streams change between releases,
so a digest pinned under one NumPy version says nothing about another: on a
different version the digest check reports "stream version changed" and
only the row invariants decide.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

PINNED_PATH = Path(__file__).with_name("pinned.json")

MATCHED = "pinned digest matched"
NOT_PINNED = "seed not pinned"
STREAM_CHANGED = "stream version changed"
MISMATCH = "digest mismatch"

# Columns of results.csv that are not floats.
_TEXT_COLUMNS = ("policy",)
_INT_COLUMNS = ("M", "K", "L", "trials", "truncations")
# Acceptance criterion 02: p_e <= 4c + 3 stderr for dgf at these -log c.
_DGF_CHECKED_NEG_LOG_C = (3.0, 5.0)


def load_pinned(path: Path = PINNED_PATH) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_status(digest: str, pinned: dict, workload: str, label: str,
                  seed: int, numpy_version: str) -> str:
    """Compare one results.csv digest against the pinned one, if any applies."""
    expected = pinned.get("workloads", {}).get(workload, {}).get("digests", {}).get(label)
    if expected is None or seed != pinned.get("seed"):
        return NOT_PINNED
    if numpy_version != pinned.get("numpy"):
        return STREAM_CHANGED
    return MATCHED if digest == expected else MISMATCH


def row_problems(path: Path, trials: int) -> list[str]:
    """Invariant violations in one results.csv; empty when every row holds.

    Every row must report ``trials`` trials, no truncation and finite
    numbers, and every dgf row at -log c in {3, 5} must satisfy the error
    bound of acceptance criterion 02.
    """
    problems = []
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return [f"{path.name}: no rows"]
    for n, row in enumerate(rows, start=1):
        where = f"{path.name} row {n} ({row.get('policy')})"
        try:
            values = {k: (v if k in _TEXT_COLUMNS else int(v) if k in _INT_COLUMNS else float(v))
                      for k, v in row.items()}
        except (TypeError, ValueError) as exc:
            problems.append(f"{where}: unparsable value: {exc}")
            continue
        if values["trials"] != trials:
            problems.append(f"{where}: {values['trials']} trials, expected {trials}")
        if values["truncations"] != 0:
            problems.append(f"{where}: {values['truncations']} truncated trials")
        bad = [k for k, v in values.items() if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            problems.append(f"{where}: non-finite {', '.join(bad)}")
            continue
        if values["policy"] == "dgf" and values["neg_log_c"] in _DGF_CHECKED_NEG_LOG_C:
            p_e, c, n_trials = values["p_e"], values["c"], values["trials"]
            stderr = math.sqrt(p_e * (1.0 - p_e) / n_trials)
            if p_e > 4.0 * c + 3.0 * stderr:
                problems.append(f"{where}: p_e={p_e} exceeds 4c + 3 stderr = "
                                f"{4.0 * c + 3.0 * stderr}")
    return problems


def truncations(path: Path) -> int:
    with path.open(encoding="utf-8", newline="") as fh:
        return sum(int(row["truncations"]) for row in csv.DictReader(fh))
