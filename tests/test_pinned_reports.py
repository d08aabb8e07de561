"""Report bytes pinned as sha256 prefixes.

The printed reports change only with an announced report change.  For each
catalog id, the ``verify`` reports of generated positives and random
negatives at two seeds and at the scales 1e-6, 1 and 1e6 are hashed
together with their exit codes, and one ``fuzz`` report per id is hashed
on its own.  Each ``compute`` kind spelling, and one unknown kind, is
hashed over its exit codes, stdout and stderr on planted-index matrices,
a nilpotent block and a subnormal diagonal.
"""

import hashlib

import numpy as np
import pytest

from geninv import cli
from geninv.cli import main
from geninv.generators import (fuzz_dims, gen_with_index, instance_for,
                               trial_seed)
from geninv.matrixio import dumps_report
from geninv.theorems import THEOREM_SYMBOLS

SCALES = (1e-6, 1.0, 1e6)

VERIFY_PINS = {
    "C3_2": "1ff65586fc0fbf7c",
    "C4_2": "6cf4b15cf0e53898",
    "C4_4": "6520c27813588562",
    "C4_6": "c2f3486148f8b9bf",
    "L2_1": "4b918474f63ffc26",
    "L2_2": "7cc731c227084b75",
    "L2_3": "eea1ddd000ac6efe",
    "L2_4": "91ad069508f2d1f8",
    "L2_5a": "762542679fefbd5c",
    "L2_5b": "7c559f17922d12c8",
    "T1_1": "c351b8cda56a61bb",
    "T3_1": "6e9aa65f8cf5f114",
    "T4_1": "496d82cfbb1c9fb8",
    "T4_3": "0fa97486c0f8ceac",
    "T4_5": "dd5885170e87a95c",
}

FUZZ_PINS = {
    "C3_2": "efbbfc0c5250e304",
    "C4_2": "18a4613ffd35f54c",
    "C4_4": "66a9582b375f428a",
    "C4_6": "85ae21bb758cdcc8",
    "EX3_3": "e861ac876fb57ada",
    "L2_1": "478144863ff43b1a",
    "L2_2": "ae54367f95cdc014",
    "L2_3": "7b8e4be70c2b14a5",
    "L2_4": "da828f2c2bd993de",
    "L2_5a": "d0b89036d14a605c",
    "L2_5b": "5cba5a10cb3fc09d",
    "T1_1": "e9a1dc194f804db6",
    "T3_1": "e7abeeaafac9a379",
    "T4_1": "621c660570714de9",
    "T4_3": "c1513cca91cbf301",
    "T4_5": "f3929cfd562772f5",
}

COMPUTE_PINS = {
    "banana": "9951d6bee3a1bee1",
    "core": "1731010928576956",
    "drazin": "f0d109f06ea70441",
    "group": "c7b88d50f00af62c",
    "index": "8426189cf8c03d64",
    "moore_penrose": "4a9342958213057d",
    "mp": "4a9342958213057d",
    "one3": "8a73a3de182d5902",
    "one_three": "8a73a3de182d5902",
    "pcore": "f4935f5e7b481957",
    "pinv": "4a9342958213057d",
    "pseudo_core": "f4935f5e7b481957",
    "spectral_idempotent": "83b298a98c26d161",
    "star_dmp": "cf49a3daa0d5dae5",
}


def _crandn(rg, shape):
    return rg.standard_normal(shape) + 1j * rg.standard_normal(shape)


def _instances(theorem):
    """Generated positives and random negatives at two seeds."""
    dims = fuzz_dims(theorem)
    for seed in (3, 17):
        inst = instance_for(theorem, dims, trial_seed(seed, 0)).matrices
        yield inst
        rg = np.random.default_rng(seed)
        if theorem == "L2_5b":
            x, split = _crandn(rg, inst["x"].shape), inst["split"]
            x[split:, :split] = 0.0      # the check requires this block zero
            yield {"x": x, "split": split}
        else:
            yield {name: _crandn(rg, M.shape) for name, M in inst.items()}


def _scaled(matrices, c):
    return {name: M * c if isinstance(M, np.ndarray) else M
            for name, M in matrices.items()}


def _digest(parts):
    return hashlib.sha256("".join(parts).encode()).hexdigest()[:16]


def test_pins_cover_the_catalog():
    assert set(FUZZ_PINS) == set(THEOREM_SYMBOLS)
    assert set(VERIFY_PINS) == {t for t, s in THEOREM_SYMBOLS.items() if s}


@pytest.mark.parametrize("theorem", sorted(VERIFY_PINS))
def test_verify_reports(theorem, capsys, tmp_path, monkeypatch):
    # a relative path, so the echoed "input" field is the same on every run
    monkeypatch.chdir(tmp_path)
    parts = []
    for matrices in _instances(theorem):
        for c in SCALES:
            with open("inst.json", "w") as fh:
                fh.write(dumps_report(_scaled(matrices, c)))
            code = main(["verify", "--theorem", theorem, "--input", "inst.json"])
            parts += [str(code), capsys.readouterr().out]
    assert _digest(parts) == VERIFY_PINS[theorem]


@pytest.mark.parametrize("theorem", sorted(FUZZ_PINS))
def test_fuzz_report(theorem, capsys):
    code = main(["fuzz", "--theorem", theorem, "--trials", "3", "--seed", "5"])
    assert _digest([str(code), capsys.readouterr().out]) == FUZZ_PINS[theorem]


def _compute_inputs():
    """gen_with_index at index 0-3, a nilpotent Jordan block (no group or
    core inverse) and a subnormal diagonal (its core block overflows)."""
    for k, r in ((0, 4), (1, 2), (2, 2), (3, 1)):
        yield gen_with_index(4, k, r, 40 + k)
    yield np.array([[0.0, 1.0], [0.0, 0.0]])
    yield np.diag([1e-320, 0.0, 1e-320])


def test_compute_pins_cover_every_spelling():
    spellings = {*cli._COMPUTE_KINDS, *cli._KIND_ALIASES, "banana"}
    assert set(COMPUTE_PINS) == spellings


@pytest.mark.parametrize("kind", sorted(COMPUTE_PINS))
def test_compute_reports(kind, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    parts = []
    for A in _compute_inputs():
        with open("a.json", "w") as fh:
            fh.write(dumps_report(A))
        code = main(["compute", "--kind", kind, "--input", "a.json"])
        captured = capsys.readouterr()
        parts += [str(code), captured.out, captured.err]
    assert _digest(parts) == COMPUTE_PINS[kind]
