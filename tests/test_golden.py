"""Byte-for-byte golden outputs of the shipped presets.

Each preset runs once as ``anomsearch --preset <name> --trials 300 --seed
271828``. ``GOLDEN`` pins the SHA-256 of its ``results.csv``, taken from the
one-trial-at-a-time scalar engine before the lockstep engine replaced it for
the deterministic policies; ``table2``'s, the one grid that reaches -log c =
11.51, from the lockstep engine. ``SUMMARY_GOLDEN`` pins the SHA-256 of the
canonical JSON (sorted keys, no whitespace) of the ``rates`` and ``results``
blocks of ``summary.json``; the manifest is left out, as it records a
timestamp. Any change to the trial engines, the models' float arithmetic,
the rate helpers or the output formats that moves a single bit fails here.

NumPy's policy (NEP 19) lets ``Generator`` streams change between releases,
so the digests hold only under the NumPy version that produced them; on any
other version the tests skip with "stream version changed".
"""

import hashlib
import json

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
    "table2": "f3f1d07edac615bcabe33dc16b1d906456cc6db7ecd7a7d581fcf12125a704c1",
}
SUMMARY_GOLDEN = {
    "fig2": "7bfc1103dd0e3f388ca40e842747c36acbc272f35b5bf83ce77fb2465d3a33a8",
    "fig3": "35edae3627acd565903f09b14b79d4f4edb854c44705b031b59f6aee9d997cb4",
    "fig4": "ae86fa63ff9eb8b9d09059b87fab0772cf46363e2bc9bf3185e32a6fcc111567",
    "table1_example": "050d7223f25fa41a4c5eb4c24508a4f54d614d666fccc9029d553808e839215f",
    "table2": "5e3659cd947a7a24f48c60cb1c3674266a9418aefb21011edf55fc951828d239",
}


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def preset(request, tmp_path_factory):
    """The preset's name and output directory, run once for both digests."""
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"stream version changed: digests pinned under NumPy {PINNED_NUMPY}, "
                    f"running {np.__version__}")
    out = tmp_path_factory.mktemp(request.param)
    code = main(["--preset", request.param, "--trials", str(TRIALS), "--seed", str(SEED),
                 "--out", str(out)])
    assert code == 0
    return request.param, out


def test_preset_results_match_pinned_digest(preset):
    name, out = preset
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[name]


def test_preset_summary_matches_pinned_digest(preset):
    name, out = preset
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    blob = json.dumps({"rates": summary["rates"], "results": summary["results"]},
                      sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == SUMMARY_GOLDEN[name]
