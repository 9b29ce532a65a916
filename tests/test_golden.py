"""Byte-for-byte golden outputs of the shipped presets and of five more engine paths.

Each preset runs once as ``anomsearch --preset <name> --trials 300 --seed
271828``. ``GOLDEN`` pins the SHA-256 of its ``results.csv``, taken from the
one-trial-at-a-time scalar engine before the lockstep engine replaced it for
the deterministic policies; ``table2``'s, the one grid that reaches -log c =
11.51, from the lockstep engine. ``SUMMARY_GOLDEN`` pins the SHA-256 of the
canonical JSON (sorted keys, no whitespace) of the ``rates`` and ``results``
blocks of ``summary.json``; the manifest is left out, as it records a
timestamp. Any change to the trial engines, the models' float arithmetic,
the rate helpers or the output formats that moves a single bit fails here.

``ENGINE_GOLDEN`` pins the ``results.csv`` of five configs that reach the
engine paths no preset does: ``seq_dgf_l`` in each probing regime,
Gaussian cells with non-uniform priors, Tabulated cells probed all at once
(K = M), and ``dgf_l`` with several probes and targets. Each runs through
``main`` from a config file at -log c = 2 and 4, with the presets' trials
and seed; the digests were taken before the library checked its config's
types.

NumPy's policy (NEP 19) lets ``Generator`` streams change between releases,
so the digests hold only under the NumPy version that produced them; on any
other version the tests skip with "stream version changed".
"""

import hashlib
import json
from pathlib import Path

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


ENGINE_CONFIGS = {
    "seq_dgf_l_regime_g": {"policies": "seq_dgf_l", "M": 6, "K": 1, "L": 2,
                           "model": {"kind": "bernoulli", "p_f": 0.1, "p_g": 0.6}},
    "seq_dgf_l_regime_f": {"policies": "seq_dgf_l", "M": 5, "K": 1, "L": 2,
                           "model": {"kind": "exponential", "lambda_f": 0.5, "lambda_g": 10.0}},
    "dgf_gaussian_priors": {"policies": "dgf", "M": 4, "K": 2, "L": 1,
                            "model": {"kind": "gaussian", "mu_f": 0.0, "mu_g": 1.0},
                            "priors": [0.4, 0.3, 0.2, 0.1]},
    "chernoff_tabulated_k_is_m": {"policies": "chernoff", "M": 3, "K": 3, "L": 1,
                                  "model": {"kind": "tabulated", "support": [0.0, 1.0, 2.0],
                                            "pmf_f": [0.5, 0.3, 0.2],
                                            "pmf_g": [0.2, 0.3, 0.5]}},
    "dgf_l_bernoulli": {"policies": "dgf_l", "M": 8, "K": 3, "L": 2,
                        "model": {"kind": "bernoulli", "p_f": 0.1, "p_g": 0.4}},
}
ENGINE_GOLDEN = {
    "seq_dgf_l_regime_g": "5c91f75b486b6ebe727520557aba0d0443edbecfb9bd29447c13ddd2be8e134c",
    "seq_dgf_l_regime_f": "c7a5261ec2dfaeb5167d1aa0f3f9af226481daa72484b2a0429832adb97472ab",
    "dgf_gaussian_priors": "82270c43217392b8a3fef7fff6f0466169a004aa81d5b0824c1c4cc8458bb2e4",
    "chernoff_tabulated_k_is_m": "9d44578f99eaa703785701731659e99d59f8d8012db30196d9be0bd716032bd8",
    "dgf_l_bernoulli": "a75a2233f8988b9cea6ebd36d079a3dd742e8b8d517c155d6b6aea6be98c83c9",
}


def run_main(args, out):
    """``main`` on ``args``, writing to ``out``; skips off the pinned NumPy."""
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"stream version changed: digests pinned under NumPy {PINNED_NUMPY}, "
                    f"running {np.__version__}")
    assert main([*args, "--trials", str(TRIALS), "--seed", str(SEED), "--out", str(out)]) == 0


def results_digest(out: Path) -> str:
    return hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def preset(request, tmp_path_factory):
    """The preset's name and output directory, run once for both digests."""
    out = tmp_path_factory.mktemp(request.param)
    run_main(["--preset", request.param], out)
    return request.param, out


def test_preset_results_match_pinned_digest(preset):
    name, out = preset
    assert results_digest(out) == GOLDEN[name]


def test_preset_summary_matches_pinned_digest(preset):
    name, out = preset
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    blob = json.dumps({"rates": summary["rates"], "results": summary["results"]},
                      sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == SUMMARY_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
def test_engine_path_results_match_pinned_digest(name, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**ENGINE_CONFIGS[name], "neg_log_c": [2.0, 4.0]}))
    run_main([str(config)], tmp_path / "out")
    assert results_digest(tmp_path / "out") == ENGINE_GOLDEN[name]
