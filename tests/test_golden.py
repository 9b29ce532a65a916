"""Byte-for-byte golden outputs of the shipped presets.

The digests are SHA-256 sums of ``results.csv`` written by
``anomsearch --preset <name> --trials 300 --seed 271828``, pinned from the
one-trial-at-a-time scalar engine before the lockstep engine replaced it for
the deterministic policies. Any change to the trial engines, the models'
float arithmetic or the CSV format that moves a single bit fails here.

NumPy's policy (NEP 19) lets ``Generator`` streams change between releases,
so the digests hold only under the NumPy version that produced them; on any
other version the test skips with "stream version changed".
"""

import hashlib

import numpy as np
import pytest

from anomsearch.cli import main

PINNED_NUMPY = "2.4.6"
TRIALS = 300
SEED = 271_828
GOLDEN = {
    "fig2": "2ecaa519fd238575348550cf04f692e06e22fa497f6013eefb709b9189171cd6",
    "fig3": "2910fb5b62e5bc2dfc2d69edb8efceeb0d437e28075d553431622774b78719d5",
    "fig4": "fb2f21ad126c2df011998631c8daace6986f60060556469c19045979bed55a9c",
    "table1_example": "d63f5fd5afd706fc38f11c6dd4fcc81f7e0249311aa271834ac15920f641f452",
}


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_preset_results_match_pinned_digest(preset, tmp_path, capsys):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"stream version changed: digests pinned under NumPy {PINNED_NUMPY}, "
                    f"running {np.__version__}")
    out = tmp_path / preset
    code = main(["--preset", preset, "--trials", str(TRIALS), "--seed", str(SEED),
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[preset]
