"""The report writer against the generic encoder it replaced.

``oracle_dumps`` is the former serializer, kept here as the reference:
convert the report to plain JSON values (every ndarray through
``matrix_to_obj``), then ``json.dumps(..., indent=2)``.  ``dumps_report``
must give the same text byte for byte.
"""

import enum
import json
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import geninv.cli as cli
from geninv.cli import main
from geninv.generators import (
    fuzz_dims, gen_with_index, instance_for, trial_seed)
from geninv.matrixio import dumps_report, matrix_to_obj
from geninv.theorems import THEOREM_SYMBOLS


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return matrix_to_obj(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def oracle_dumps(report) -> str:
    return json.dumps(_jsonable(report), indent=2)


# ---------------------------------------------------------------------------
# generated reports

# subclasses, which the writer's exact-type dispatch passes to its fallback


class _Str(str):
    pass


class _List(list):
    pass


class _Level(enum.IntEnum):
    LOW = -3
    ZERO = 0
    HIGH = 7


_any_float = st.floats(allow_nan=True, allow_infinity=True)
_shapes = st.one_of(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.just(1), st.integers(1, 6)),
    st.tuples(st.integers(1, 6), st.just(1)),
)
_complex_matrices = _shapes.flatmap(lambda shape: hnp.arrays(
    np.complex128, shape,
    elements=st.complex_numbers(allow_nan=True, allow_infinity=True)))
_matrices = st.one_of(
    _complex_matrices,
    _complex_matrices.map(lambda A: A.T),                 # not C-contiguous
    _shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape,
                                             elements=_any_float)),
    _shapes.flatmap(lambda shape: hnp.arrays(np.int64, shape)),
)
_leaves = st.one_of(
    _any_float,
    st.just(-0.0),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
    st.text(alphabet=st.characters(min_codepoint=0x80)),  # all non-ASCII
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    _any_float.map(np.float64),
    st.floats(width=32, allow_nan=True).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers().map(np.complex128),
    st.text().map(_Str),
    st.sampled_from(_Level),
    _matrices,
)
_reports = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
        st.dictionaries(st.integers(-3, 3), children, max_size=4),
        st.lists(children, max_size=3).map(_List),
        st.dictionaries(st.text(max_size=5), children,
                        max_size=4).map(OrderedDict),
    ),
    max_leaves=20,
)


class TestAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(_reports)
    def test_generated_reports(self, report):
        assert dumps_report(report) == oracle_dumps(report)

    @pytest.mark.parametrize("report", [
        {}, [], (), {"m": np.zeros((0, 0))}, {"m": np.zeros((3, 0))},
        {1: "int key", None: "None key"}, {"x": float("nan"), "y": -0.0},
        {"nested": [{"m": np.full((2, 2), np.inf + 0j)}, [[]], {}]},
        OrderedDict(s=_Str("x"), e=_Level.HIGH, l=_List([_Level.LOW, 1.5]),
                    o=OrderedDict(), t=_List()),
    ])
    def test_edge_reports(self, report):
        assert dumps_report(report) == oracle_dumps(report)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            dumps_report({"x": object()})


# ---------------------------------------------------------------------------
# every report the CLI writes


@pytest.fixture
def emitted(monkeypatch):
    """The report objects that the CLI writes, recorded in order."""
    seen = []

    def recording(report):
        seen.append(report)
        return dumps_report(report)

    monkeypatch.setattr(cli, "dumps_report", recording)
    return seen


def _write_instance(tmp_path, matrices):
    path = tmp_path / "inst.json"
    path.write_text(oracle_dumps(matrices))
    return str(path)


def _assert_stdout_is_oracle(capsys, emitted):
    out = capsys.readouterr().out
    assert len(emitted) == 1
    assert out == oracle_dumps(emitted.pop()) + "\n"


def _verify_instances():
    rg = np.random.default_rng(71)
    for theorem, symbols in sorted(THEOREM_SYMBOLS.items()):
        dims = fuzz_dims(theorem)
        for trial in range(2):
            yield theorem, instance_for(theorem, dims, trial_seed(5, trial)).matrices
        if symbols and "split" not in symbols:
            # a generic draw, which breaks most hypotheses
            inst = instance_for(theorem, dims, trial_seed(5, 0)).matrices
            yield theorem, {name: rg.standard_normal(M.shape)
                            + 1j * rg.standard_normal(M.shape)
                            for name, M in inst.items()}


class TestCliReports:
    @pytest.mark.parametrize("theorem,matrices", list(_verify_instances()))
    def test_verify_report(self, capsys, tmp_path, emitted, theorem, matrices):
        argv = ["verify", "--theorem", theorem]
        if matrices:
            argv += ["--input", _write_instance(tmp_path, matrices)]
        main(argv)
        _assert_stdout_is_oracle(capsys, emitted)

    @pytest.mark.parametrize("kind", cli._COMPUTE_KINDS)
    @pytest.mark.parametrize("k,r", [(0, 4), (1, 2), (2, 2)])
    def test_compute_report(self, capsys, tmp_path, emitted, kind, k, r):
        A = gen_with_index(4, k, r, 300 + k)
        path = tmp_path / "a.json"
        path.write_text(oracle_dumps(A))
        main(["compute", "--kind", kind, "--input", str(path)])
        _assert_stdout_is_oracle(capsys, emitted)

    def test_fuzz_and_example_reports(self, capsys, emitted):
        main(["fuzz", "--theorem", "T4_3", "--trials", "3", "--seed", "2"])
        _assert_stdout_is_oracle(capsys, emitted)
        main(["example33"])
        _assert_stdout_is_oracle(capsys, emitted)
