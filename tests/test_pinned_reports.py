"""Report bytes pinned as sha256 prefixes.

The printed reports change only with an announced report change.  For each
catalog id, the ``verify`` reports of generated positives and random
negatives at two seeds and at the scales 1e-6, 1 and 1e6 are hashed
together with their exit codes, and one ``fuzz`` report per id is hashed
on its own.
"""

import hashlib

import numpy as np
import pytest

import geninv.cli as cli
from geninv.cli import main
from geninv.generators import instance_for, trial_seed
from geninv.matrixio import dumps_report
from geninv.theorems import THEOREM_SYMBOLS

SCALES = (1e-6, 1.0, 1e6)

VERIFY_PINS = {
    "C3_2": "fc9ddea9e6db4735",
    "C4_2": "e154d379d835834e",
    "C4_4": "ebb0404d9199e0b1",
    "C4_6": "ac4076e49f1291c0",
    "L2_1": "972da81a4d0c95fb",
    "L2_2": "1302393d54989a35",
    "L2_3": "8c58596baf47ff96",
    "L2_4": "91ad069508f2d1f8",
    "L2_5a": "e6d3f64848fbf334",
    "L2_5b": "44bb748e0eb1d446",
    "T1_1": "c191cb850e362a13",
    "T3_1": "475463aac8d9d85c",
    "T4_1": "9649786206917522",
    "T4_3": "4c21f271a8e17cf0",
    "T4_5": "8db4b4d7631925aa",
}

FUZZ_PINS = {
    "C3_2": "2245d5ffee30aee7",
    "C4_2": "b275b07e9b6c4114",
    "C4_4": "fc6c60836be2376d",
    "C4_6": "4d4653fce0755d9d",
    "EX3_3": "e861ac876fb57ada",
    "L2_1": "e0f5119933f2a8d1",
    "L2_2": "6320306aa999f954",
    "L2_3": "e53d8f7fdb31e24d",
    "L2_4": "da828f2c2bd993de",
    "L2_5a": "f556cc949c96c568",
    "L2_5b": "f526c9ea21b05e4a",
    "T1_1": "82030c5607daae2a",
    "T3_1": "e7abeeaafac9a379",
    "T4_1": "c856d512e4e851fe",
    "T4_3": "685e812f1af15ce4",
    "T4_5": "97371d9979149da2",
}


def _crandn(rg, shape):
    return rg.standard_normal(shape) + 1j * rg.standard_normal(shape)


def _instances(theorem):
    """Generated positives and random negatives at two seeds."""
    dims = cli._DEFAULT_FUZZ_DIMS.get(theorem, (4,))
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
