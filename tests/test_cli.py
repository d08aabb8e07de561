import dataclasses
import json

import numpy as np
import pytest

import geninv.cli as cli
from geninv.cli import build_parser, main
from geninv.linalg import DEFAULT_POLICY
from geninv.matrixio import (
    dumps_report, load_json, matrix_to_obj, parse_instance, parse_matrix)

A33_OBJ = {"rows": 2, "cols": 2,
           "data": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
NILP_OBJ = {"rows": 2, "cols": 2,
            "data": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
EYE_OBJ = {"rows": 2, "cols": 2,
           "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out, captured.err


class TestMatrixIO:
    def test_round_trip_canonical(self):
        rg = np.random.default_rng(60)
        A = rg.standard_normal((3, 2)) + 1j * rg.standard_normal((3, 2))
        text = dumps_report(matrix_to_obj(A))
        parsed = parse_matrix(json.loads(text))
        assert np.array_equal(parsed, A)
        assert dumps_report(matrix_to_obj(parsed)) == text

    def test_missing_field(self):
        with pytest.raises(ValueError):
            parse_matrix({"rows": 1, "data": [[[0, 0]]]})

    def test_ragged_row(self):
        with pytest.raises(ValueError):
            parse_matrix({"rows": 1, "cols": 2, "data": [[[0, 0]]]})

    def test_string_entry_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix({"rows": 1, "cols": 1, "data": [[["1", "0"]]]})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix({"rows": 1, "cols": 1, "data": [[[float("inf"), 0.0]]]})

    def test_instance_symbols(self):
        inst = parse_instance({"x": A33_OBJ, "split": 1}, ("x", "split"))
        assert inst["split"] == 1
        assert inst["x"].shape == (2, 2)
        with pytest.raises(ValueError):
            parse_instance({"a": A33_OBJ}, ("a", "b"))

    def test_instance_must_be_an_object(self):
        with pytest.raises(ValueError):
            parse_instance([], ("a",))


def _text_mode_load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_outcome(load, path):
    try:
        return ("value", load(path))
    except ValueError as exc:
        return (type(exc), str(exc))


class TestLoadJson:
    """load_json gives what json.load gives on the file opened in text mode:
    the same value, or the same error type and text."""

    @pytest.mark.parametrize("data", [
        b'{"a": [1, 2.5],\r\n "b": "x\\r\\ny"}\r\n',
        b'{"a":\r[1,\r2]}\r',
        b'{"a": 1,\r\n\r "b": [true, null]}\n\r',
        '{"s": "\u00e9\u4e2d"}'.encode(),
        b'\xef\xbb\xbf{"a": 1}',
        b'{"a": 1, "b": \xff}',
        b" " * 20000 + b"\xc3(",
        b'{"a": 1,\r\n "b": [1, 2,\r\n\r\n  ]}\r\n',
        b'{"a":\r 1\r "b": 2}',
        b"",
    ], ids=["crlf", "lone-cr", "mixed-newlines", "non-ascii", "bom",
            "invalid-utf8", "invalid-utf8-past-first-chunk", "malformed-crlf",
            "malformed-lone-cr", "empty"])
    def test_same_as_text_mode(self, tmp_path, data):
        path = tmp_path / "f.json"
        path.write_bytes(data)
        expected = _load_outcome(_text_mode_load, path)
        assert _load_outcome(load_json, path) == expected


class TestCompute:
    def test_pcore_of_fixed_matrix(self, capsys, tmp_path):
        path = write(tmp_path, "a.json", A33_OBJ)
        code, out, _ = run(capsys, ["compute", "--kind", "pcore",
                                    "--input", path])
        assert code == 0
        result = parse_matrix(out["result"])
        assert np.allclose(result, [[-1j, 0], [0, 0]])
        assert out["certified"] is True

    def test_group_of_nilpotent_exits_3(self, capsys, tmp_path):
        path = write(tmp_path, "n.json", NILP_OBJ)
        code, out, err = run(capsys, ["compute", "--kind", "group",
                                      "--input", path])
        assert code == 3
        assert "index 2" in err

    def test_index_of_identity(self, capsys, tmp_path):
        path = write(tmp_path, "i.json", EYE_OBJ)
        code, out, _ = run(capsys, ["compute", "--kind", "index",
                                    "--input", path])
        assert code == 0 and out["result"] == 0

    def test_star_dmp(self, capsys, tmp_path):
        path = write(tmp_path, "a.json", A33_OBJ)
        code, out, _ = run(capsys, ["compute", "--kind", "star_dmp",
                                    "--input", path])
        assert code == 0
        assert out["result"] == {"is_star_dmp": True, "witness_exponent": 1}

    def test_spectral_idempotent(self, capsys, tmp_path):
        path = write(tmp_path, "a.json", A33_OBJ)
        code, out, _ = run(capsys, ["compute", "--kind", "spectral_idempotent",
                                    "--input", path])
        assert code == 0
        assert np.allclose(parse_matrix(out["result"]), np.diag([0.0, 1.0]))

    @pytest.mark.parametrize("kind,inverse", [
        pytest.param(kind, inverse, id=kind) for kind, inverse in [
            ("pseudo_core", "pseudo core"), ("core", "pseudo core"),
            ("drazin", "Drazin"), ("group", "Drazin"),
            ("spectral_idempotent", "Drazin"), ("star_dmp", "Drazin")]])
    def test_overflowing_inverse_of_finite_input_exits_2(self, capsys,
                                                         tmp_path, kind,
                                                         inverse):
        # finite subnormal entries: T^{-1} overflows, the input does not
        path = write(tmp_path, "s.json",
                     matrix_to_obj(np.diag([1e-320, 0.0, 1e-320])))
        code, out, err = run(capsys, ["compute", "--kind", kind,
                                      "--input", path])
        assert code == 2 and out is None
        assert err == (f"error: the {inverse} inverse is not finite: the "
                       f"inverse of the core block T overflowed\n")

    def test_overflowed_certificate_power_exits_2(self, capsys, tmp_path):
        # finite A and X whose power A^2 overflows: drazin and pseudo_core
        # printed NaN residuals and exited 1; the kinds that form no power
        # still certify
        from geninv.generators import gen_with_index
        path = write(tmp_path, "big.json",
                     matrix_to_obj(1e300 * gen_with_index(4, 2, 2, 7)))
        for kind in ("drazin", "pseudo_core"):
            code, out, err = run(capsys, ["compute", "--kind", kind,
                                          "--input", path])
            assert (code, out, err) == (
                2, None, "error: the certificate power A^2 overflowed\n")
        for kind in ("moore_penrose", "spectral_idempotent", "index"):
            code, out, _ = run(capsys, ["compute", "--kind", kind,
                                        "--input", path])
            assert code == 0 and out["kind"] == kind

    def test_unreadable_input_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["compute", "--kind", "pcore",
                                    "--input", str(tmp_path / "missing.json")])
        assert code == 2 and err

    def test_malformed_input_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2}')
        code, _, _ = run(capsys, ["compute", "--kind", "pcore",
                                  "--input", str(path)])
        assert code == 2

    def test_unknown_kind_exits_2(self, capsys, tmp_path):
        path = write(tmp_path, "a.json", A33_OBJ)
        code, _, _ = run(capsys, ["compute", "--kind", "banana",
                                  "--input", path])
        assert code == 2

    def test_policy_echoed(self, capsys, tmp_path):
        path = write(tmp_path, "a.json", A33_OBJ)
        code, out, _ = run(capsys, ["compute", "--kind", "mp", "--input", path,
                                    "--eq-tol", "1e-6"])
        assert code == 0
        assert out["policy"]["eq_rel_tol"] == 1e-6
        assert out["policy"]["residual_tol"] == 1e-8

    def test_uncertified_exits_1(self, capsys, tmp_path):
        rg = np.random.default_rng(61)
        A = rg.standard_normal((3, 3)) + 1j * rg.standard_normal((3, 3))
        path = write(tmp_path, "r.json", matrix_to_obj(A))
        code, out, _ = run(capsys, ["compute", "--kind", "pcore",
                                    "--input", path, "--res-tol", "1e-300"])
        assert code == 1
        assert out["certified"] is False


def _loop_parse_matrix(obj):
    """Reference: parse_matrix as an entry-by-entry loop, as it was before
    the bulk validation."""
    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    if not isinstance(obj, dict):
        raise ValueError("matrix object must be a JSON object")
    missing = [k for k in ("rows", "cols", "data") if k not in obj]
    if missing:
        raise ValueError(f"matrix object missing fields {missing}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not (is_int(rows) and is_int(cols) and rows >= 1 and cols >= 1):
        raise ValueError("rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows:
        raise ValueError(f"data must be a list of {rows} rows")
    out = np.empty((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(f"row {i} must contain {cols} entries")
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(is_int(v) or isinstance(v, float)
                               for v in entry)):
                raise ValueError(
                    f"entry ({i},{j}) must be a [real, imaginary] pair")
            try:
                re, im = float(entry[0]), float(entry[1])
            except OverflowError:
                raise ValueError(
                    f"entry ({i},{j}) is too large for a float") from None
            if not (np.isfinite(re) and np.isfinite(im)):
                raise ValueError(f"entry ({i},{j}) is not finite")
            out[i, j] = complex(re, im)
    return out


def _matrix_obj(rows, cols, entry):
    return {"rows": rows, "cols": cols,
            "data": [[entry(i, j) for j in range(cols)] for i in range(rows)]}


class TestParseMatrixBulk:
    """The bulk validation of parse_matrix against the entry loop."""

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 3), (4, 1), (8, 8)])
    def test_same_bits_as_loop(self, shape):
        rg = np.random.default_rng(shape[0] * 10 + shape[1])
        for trial in range(20):
            parts = rg.standard_normal(shape + (2,)).tolist()
            for row in parts:
                for entry in row:
                    pick = rg.integers(0, 4)
                    if pick == 0:       # an integer part, some beyond 2**53
                        entry[0] = int(rg.integers(-10**6, 10**6)) * 10 ** int(
                            rg.integers(0, 20))
                    elif pick == 1:
                        entry[1] = -0.0
            obj = json.loads(json.dumps({"rows": shape[0], "cols": shape[1],
                                         "data": parts}))
            got, want = parse_matrix(obj), _loop_parse_matrix(obj)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    HUGE = '{"rows": 2, "cols": 1, "data": [[[0, 0]], [[1' + '0' * 400 + ', 0]]]}'

    @pytest.mark.parametrize("obj", [
        [],
        {"rows": 1, "data": [[[0, 0]]]},
        {"rows": True, "cols": 1, "data": [[[1.0, 0.0]]]},
        {"rows": 1, "cols": 0, "data": [[]]},
        {"rows": 2, "cols": 1, "data": [[[0, 0]]]},
        {"rows": 1, "cols": 1, "data": "x"},
        {"rows": 1, "cols": 2, "data": [[[0, 0]]]},
        {"rows": 2, "cols": 2, "data": [[[0, 0], [0, 0]], [[0, 0]]]},
        {"rows": 1, "cols": 1, "data": [[[True, 0.0]]]},
        {"rows": 1, "cols": 2, "data": [[[0, 0], [0, False]]]},
        {"rows": 1, "cols": 1, "data": [[["1", "0"]]]},
        {"rows": 1, "cols": 1, "data": [[[None, 0]]]},
        {"rows": 1, "cols": 1, "data": [[[0, 0, 0]]]},
        {"rows": 1, "cols": 1, "data": [[[0]]]},
        {"rows": 1, "cols": 1, "data": [[0]]},
        {"rows": 1, "cols": 1, "data": [[[[0], 0]]]},
        {"rows": 1, "cols": 1, "data": [[{"re": 0, "im": 0}]]},
        {"rows": 1, "cols": 2, "data": [{"a": [0, 0], "b": [0, 0]}]},
        {"rows": 1, "cols": 1, "data": [[(0.0, 0.0)]]},
        {"rows": 1, "cols": 1, "data": [([0.0, 0.0],)]},
        {"rows": 1, "cols": 1, "data": [[[float("inf"), 0.0]]]},
        {"rows": 2, "cols": 1, "data": [[[0, 0]], [[0.0, float("nan")]]]},
        json.loads(HUGE),
    ])
    def test_same_error_as_loop(self, obj):
        with pytest.raises(ValueError) as want:
            _loop_parse_matrix(obj)
        with pytest.raises(ValueError) as got:
            parse_matrix(obj)
        assert str(got.value) == str(want.value)

    def test_part_subclasses_accepted(self):
        # float subclasses (np.float64) fail the exact type scan and take
        # the entry walk, which accepts them as before
        obj = _matrix_obj(2, 2, lambda i, j: [np.float64(i - j), 1.5])
        assert parse_matrix(obj).tobytes() == _loop_parse_matrix(obj).tobytes()


class TestMalformedInput:
    """Malformed input ends with exit 2 and an error line, not a traceback."""

    def test_boolean_dimension_exits_2(self, capsys, tmp_path):
        obj = {"rows": True, "cols": 1, "data": [[[1.0, 0.0]]]}
        path = write(tmp_path, "a.json", obj)
        code, out, err = run(capsys, ["compute", "--kind", "pcore",
                                      "--input", path])
        assert code == 2 and out is None
        assert err.startswith("error:")

    def test_boolean_entry_exits_2(self, capsys, tmp_path):
        obj = {"rows": 1, "cols": 1, "data": [[[True, 0.0]]]}
        path = write(tmp_path, "a.json", obj)
        code, out, err = run(capsys, ["compute", "--kind", "pcore",
                                      "--input", path])
        assert code == 2 and out is None
        assert err.startswith("error:")

    def test_boolean_split_exits_2(self, capsys, tmp_path):
        x = matrix_to_obj(np.eye(4))
        path = write(tmp_path, "x.json", {"x": x, "split": True})
        code, out, err = run(capsys, ["verify", "--theorem", "L2_5b",
                                      "--input", path])
        assert code == 2 and out is None
        assert err.startswith("error:")

    @pytest.mark.parametrize("symbol,value", [
        ("split", matrix_to_obj(np.eye(1))),
        ("split", matrix_to_obj(np.eye(2))),
        ("x", 3),
        ("x", {"rows": 1, "cols": 1, "data": [[[True, 0.0]]]}),
    ], ids=["split-1x1", "split-2x2", "x-integer", "x-boolean-entry"])
    def test_wrong_symbol_kind_exits_2(self, capsys, tmp_path, symbol, value):
        # split takes only a JSON integer, every other symbol only a matrix
        # object; the error names the symbol, and exit 1 stays "fail"
        inst = {"x": matrix_to_obj(np.eye(4)), "split": 2, symbol: value}
        path = write(tmp_path, "x.json", inst)
        code, out, err = run(capsys, ["verify", "--theorem", "L2_5b",
                                      "--input", path])
        assert code == 2 and out is None
        assert err.startswith("error:") and repr(symbol) in err
        assert "ambiguous" not in err and "ndim" not in err

    # an integer entry beyond the float range, written as JSON text
    HUGE_ENTRY = '{"rows": 1, "cols": 1, "data": [[[1' + '0' * 400 + ', 0]]]}'

    def test_huge_integer_entry_compute_exits_2(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(self.HUGE_ENTRY)
        code, out, err = run(capsys, ["compute", "--kind", "pcore",
                                      "--input", str(path)])
        assert code == 2 and out is None
        assert err.startswith("error:") and "entry (0,0)" in err

    def test_huge_integer_entry_verify_exits_2(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"a": ' + self.HUGE_ENTRY + ', "b": '
                        + json.dumps(A33_OBJ) + '}')
        code, out, err = run(capsys, ["verify", "--theorem", "L2_1",
                                      "--input", str(path)])
        assert code == 2 and out is None
        assert err.startswith("error:") and "entry (0,0)" in err

    @pytest.mark.parametrize("text", ["[" * 100000, '{"a":' * 50000],
                             ids=["arrays", "objects"])
    @pytest.mark.parametrize("argv", [
        ["compute", "--kind", "pcore"],
        ["verify", "--theorem", "L2_1"],
    ], ids=["compute", "verify"])
    def test_deeply_nested_input_exits_2(self, capsys, tmp_path, argv, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run(capsys, argv + ["--input", str(path)])
        assert code == 2 and out is None
        assert err == "error: JSON input nested too deeply\n"

    @pytest.mark.parametrize("flag", ["--rank-tol", "--eq-tol", "--res-tol"])
    @pytest.mark.parametrize("value", ["nan", "-1e-9", "1", "inf"])
    def test_tolerance_out_of_range_exits_2(self, capsys, tmp_path, flag, value):
        path = write(tmp_path, "a.json", A33_OBJ)
        code, out, err = run(capsys, ["compute", "--kind", "pcore",
                                      "--input", path, f"{flag}={value}"])
        assert code == 2 and out is None
        assert err.startswith("error:") and "must lie in [0, 1)" in err


class TestVerify:
    def test_noncommuting_pair_exits_4(self, capsys, tmp_path):
        path = write(tmp_path, "inst.json", {"a": A33_OBJ, "b": NILP_OBJ})
        code, out, _ = run(capsys, ["verify", "--theorem", "L2_1",
                                    "--input", path])
        assert code == 4
        assert out["report"]["verdict"] == "hypotheses_not_met"

    def test_lemma_2_4_identity_pair(self, capsys, tmp_path):
        path = write(tmp_path, "inst.json", {"a": EYE_OBJ, "b": EYE_OBJ})
        code, out, _ = run(capsys, ["verify", "--theorem", "L2_4",
                                    "--input", path])
        assert code == 0

    def test_lemma_2_3_overflowing_candidate_passes(self, capsys, tmp_path):
        # a_pc + b_pc overflows for a = b = [[6e-309]]; that witness is
        # informational, so the verdict stands and the command exits 0
        tiny = matrix_to_obj(np.array([[6e-309]]))
        path = write(tmp_path, "inst.json", {"a": tiny, "b": tiny})
        code, out, err = run(capsys, ["verify", "--theorem", "L2_3",
                                      "--input", path])
        assert code == 0 and "error" not in err
        assert out["report"]["verdict"] == "pass"
        assert out["report"]["witnesses"]["additive_candidate_residuals"] is None

    @pytest.mark.parametrize("s", range(6))
    def test_theorem_1_1_at_tiny_scale_passes(self, capsys, tmp_path, s):
        # the scaled power of A at 1e-300 multiplies M after a power-of-two
        # prescale; unscaled, its products underflowed to a NaN power and
        # the command exited 2
        from geninv.generators import instance_for, trial_seed
        from geninv.theorems import run_check
        A = instance_for("T1_1", (4,), trial_seed(s, 0)).matrices["A"] * 1e-300
        assert run_check("T1_1", {"A": A}).verdict == "pass"
        path = write(tmp_path, "inst.json", {"A": matrix_to_obj(A)})
        code, out, err = run(capsys, ["verify", "--theorem", "T1_1",
                                      "--input", path])
        assert code == 0 and err == ""
        assert out["report"]["verdict"] == "pass"

    @pytest.mark.parametrize("theorem,word", [
        ("L2_2", "ab"), ("T4_3", "CB"), ("C4_4", "BC"),     # a record's word
        ("L2_3", "ab"), ("T4_5", "BC"), ("C4_6", "BC"),     # a vanishing one
    ])
    def test_overflowed_product_is_named(self, capsys, tmp_path, theorem,
                                         word):
        # every entry given is finite; a product of them overflows, and the
        # error names its word instead of blaming the input
        from geninv.generators import fuzz_dims, instance_for, trial_seed
        matrices = instance_for(theorem, fuzz_dims(theorem),
                                trial_seed(0, 0)).matrices
        path = tmp_path / "inst.json"
        path.write_text(dumps_report({name: 1e300 * M
                                      for name, M in matrices.items()}))
        code, out, err = run(capsys, ["verify", "--theorem", theorem,
                                      "--input", str(path)])
        assert (code, out, err) == (
            2, None, f"error: the product {word} overflowed\n")

    def test_generated_block_instance(self, capsys, tmp_path):
        from geninv.generators import instance_for
        matrices = instance_for("T4_1", (3, 2), 404).matrices
        inst = {name: matrix_to_obj(M) for name, M in matrices.items()}
        path = write(tmp_path, "inst.json", inst)
        code, out, _ = run(capsys, ["verify", "--theorem", "T4_1",
                                    "--input", path])
        assert code == 0
        assert out["report"]["verdict"] == "pass"

    def test_arity_mismatch_exits_2(self, capsys, tmp_path):
        path = write(tmp_path, "inst.json", {"a": A33_OBJ})
        code, _, _ = run(capsys, ["verify", "--theorem", "L2_1",
                                  "--input", path])
        assert code == 2

    def test_shape_mismatch_exits_2(self, capsys, tmp_path):
        wide = {"rows": 1, "cols": 2, "data": [[[1.0, 0.0], [0.0, 0.0]]]}
        path = write(tmp_path, "inst.json", {"a": wide, "b": wide})
        code, _, _ = run(capsys, ["verify", "--theorem", "L2_1",
                                  "--input", path])
        assert code == 2

    def test_block_shape_mismatch_lists_every_shape(self, capsys, tmp_path):
        wide = {"rows": 1, "cols": 2, "data": [[[1.0, 0.0], [0.0, 0.0]]]}
        path = write(tmp_path, "inst.json",
                     {"A": EYE_OBJ, "B": wide, "C": EYE_OBJ, "D": EYE_OBJ})
        code, out, err = run(capsys, ["verify", "--theorem", "T4_1",
                                      "--input", path])
        assert (code, out, err) == (
            2, None, "error: A, B, C, D must have shapes (p,p), (p,q), (q,p), "
            "(q,q); got (2, 2), (1, 2), (2, 2), (2, 2)\n")

    def test_unknown_theorem_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["verify", "--theorem", "T7_7"])
        assert code == 2

    def test_missing_input_exits_2(self, capsys):
        code, out, err = run(capsys, ["verify", "--theorem", "L2_1"])
        assert code == 2 and out is None
        assert "requires --input" in err

    def test_fixed_instance_needs_no_input(self, capsys):
        code, out, _ = run(capsys, ["verify", "--theorem", "EX3_3"])
        assert code == 0
        assert out["report"]["verdict"] == "pass"

    @pytest.mark.parametrize("path", ["/nonexistent.json", "inst.json"])
    def test_input_for_an_id_without_symbols_exits_2(self, capsys, tmp_path,
                                                     path):
        # an instance file that would never be read, existing or not, is
        # refused rather than echoed into the report
        if path == "inst.json":
            path = write(tmp_path, path, {"a": A33_OBJ})
        code, out, err = run(capsys, ["verify", "--theorem", "EX3_3",
                                      "--input", path])
        assert code == 2 and out is None
        assert err == "error: EX3_3 takes no symbols; drop --input\n"

    def test_theorem_1_1_power_of_index_two_exits_1(self, capsys, tmp_path):
        # the scaled power of this A has index 2 by its own staircase: the
        # check reports that, and the valid input does not exit 2
        A = np.array([[1e-5, 1, 0], [0, 0, 1], [0, 0, 0]])
        path = write(tmp_path, "inst.json", {"A": matrix_to_obj(A)})
        code, out, err = run(capsys, ["verify", "--theorem", "T1_1",
                                      "--input", path])
        assert code == 1 and err == ""
        checks = {c["label"]: c for c in out["report"]["conclusion_checks"]}
        assert checks["power_index_at_most_one"] == {
            "label": "power_index_at_most_one", "value": 2, "pass": False}
        assert checks["power_core_certified"] == {
            "label": "power_core_certified", "value": None, "pass": False}
        assert out["report"]["verdict"] == "fail"

    def test_failed_conclusion_exits_1(self, capsys):
        # an impossibly tight equality tolerance fails a conclusion check
        # while the (empty) hypothesis list still holds
        code, out, _ = run(capsys, ["verify", "--theorem", "EX3_3",
                                    "--eq-tol", "1e-300"])
        assert code == 1
        assert out["report"]["verdict"] == "fail"


class TestFuzz:
    def test_small_campaign_passes(self, capsys):
        code, out, _ = run(capsys, ["fuzz", "--theorem", "L2_2", "--dim", "4",
                                    "--trials", "25", "--seed", "7"])
        assert code == 0
        assert out["summary"]["pass"] == 25
        assert out["summary"]["fail"] == 0

    def test_deterministic_output(self, capsys):
        argv = ["fuzz", "--theorem", "T3_1", "--dim", "4",
                "--trials", "10", "--seed", "11"]
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_zero_trials_exits_2(self, capsys):
        code, _, _ = run(capsys, ["fuzz", "--theorem", "L2_1", "--trials", "0"])
        assert code == 2

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_exits_2(self, capsys, seed):
        code, out, err = run(capsys, ["fuzz", "--theorem", "L2_1",
                                      "--trials", "1", "--seed", seed])
        assert code == 2 and out is None
        assert err.startswith("error:") and "--seed" in err

    def test_oversized_dims_exit_2(self, capsys):
        # a zero or empty dimension must not fall back to the default dims
        for theorem, dims in (("T4_1", ["--dims", "12,12"]),
                              ("L2_1", ["--dim", "0"]),
                              ("L2_1", ["--dims", ""])):
            code, out, err = run(capsys, ["fuzz", "--theorem", theorem, *dims,
                                          "--trials", "1"])
            assert code == 2, dims
            assert out is None and err.startswith("error:"), dims

    def test_dim_and_dims_together_exit_2(self, capsys):
        code, out, err = run(capsys, ["fuzz", "--theorem", "T4_1", "--dim", "3",
                                      "--dims", "4,4", "--trials", "1"])
        assert code == 2 and out is None
        assert err == "error: give --dim or --dims, not both\n"

    @pytest.mark.parametrize("theorem,dims,rule", [
        ("L2_1", ["--dims", "5,3"], "L2_1 takes one dim in [1, 16]"),
        ("T1_1", ["--dims", "3,7"], "T1_1 takes one dim in [1, 16]"),
        ("T4_1", ["--dim", "12"], "T4_1 takes one or two dims, each in [1, 8]"),
        ("L2_3", ["--dim", "1"], "L2_3 takes one dim in [2, 16]"),
        ("L2_5a", ["--dims", "3,3,3"], "L2_5a takes one or two dims"),
        ("EX3_3", ["--dim", "9"], "EX3_3 takes no dims; drop --dim/--dims\n"),
    ], ids=["L2_1-5,3", "T1_1-3,7", "T4_1-12", "L2_3-1", "L2_5a-3,3,3",
            "EX3_3-9"])
    def test_dims_outside_the_id_contract_exit_2(self, capsys, theorem, dims,
                                                 rule):
        # refused before any trial runs, with the id's own rule
        code, out, err = run(capsys, ["fuzz", "--theorem", theorem, *dims,
                                      "--trials", "1"])
        assert code == 2 and out is None
        assert err.startswith(f"error: {rule}") and "trial" not in err

    @pytest.mark.parametrize("theorem,dims,printed", [
        ("L2_1", ["--dims", "9"], [9]),
        ("L2_1", [], [4]),
        ("EX3_3", [], [4]),
        ("L2_5b", [], [3, 3]),
        ("C4_6", ["--dims", "8,1"], [8, 1]),
        ("T4_3", ["--dim", "2"], [2]),
    ], ids=["L2_1-9", "L2_1-default", "EX3_3-default", "L2_5b-default",
            "C4_6-8,1", "T4_3-2"])
    def test_dims_inside_the_id_contract_run(self, capsys, theorem, dims,
                                             printed):
        code, out, _ = run(capsys, ["fuzz", "--theorem", theorem, *dims,
                                    "--trials", "1"])
        assert code == 0 and out["dims"] == printed

    def test_summary_counts_sum_to_trials(self, capsys):
        code, out, _ = run(capsys, ["fuzz", "--theorem", "L2_5a",
                                    "--dims", "3,3", "--trials", "15",
                                    "--seed", "3"])
        s = out["summary"]
        assert s["pass"] + s["fail"] + s["hypotheses_not_met"] == 15

    def test_seed_and_policy_echoed(self, capsys):
        code, out, _ = run(capsys, ["fuzz", "--theorem", "L2_1", "--dim", "3",
                                    "--trials", "5", "--seed", "123",
                                    "--res-tol", "1e-7"])
        assert out["seed"] == 123
        assert out["policy"]["residual_tol"] == 1e-7

    def test_generator_integrity_failure_exits_5(self, capsys, monkeypatch):
        # a generator that breaks its own hypothesis guarantee is a bug and
        # must surface as exit 5, not as a silent skip
        import geninv.cli as cli_mod
        from geninv.generators import Instance

        a = parse_matrix(A33_OBJ)
        b = parse_matrix(NILP_OBJ)   # ab != ba: hypotheses of L2_1 fail

        monkeypatch.setattr(cli_mod, "instance_for",
                            lambda *args, **kwargs: Instance({"a": a, "b": b}))
        code, out, _ = run(capsys, ["fuzz", "--theorem", "L2_1", "--dim", "2",
                                    "--trials", "3", "--seed", "1"])
        assert code == 5
        assert out["summary"]["hypotheses_not_met"] == 3

    def test_failed_conclusion_exits_1(self, capsys, monkeypatch):
        import geninv.cli as cli_mod
        from geninv.theorems import Check, TheoremReport

        monkeypatch.setattr(
            cli_mod, "run_check", lambda theorem_id, *args: TheoremReport(
                theorem_id, conclusion_checks=[Check("forced", 1.0, False)]))
        code, out, _ = run(capsys, ["fuzz", "--theorem", "L2_1", "--dim", "2",
                                    "--trials", "2", "--seed", "1"])
        assert code == 1
        assert out["summary"]["fail"] == 2

    def test_unknown_theorem_exits_2(self, capsys):
        code, out, _ = run(capsys, ["fuzz", "--theorem", "NOPE"])
        assert code == 2 and out is None


class TestPolicyBlock:
    """One policy object per run, printed as asdict would print it."""

    def test_no_option_gives_the_default_policy(self):
        for argv in (["example33"], ["fuzz", "--theorem", "L2_1"]):
            args = build_parser().parse_args(argv)
            assert cli._policy_from(args) is DEFAULT_POLICY

    @pytest.mark.parametrize("options", [
        [], ["--rank-tol", "1e-9"], ["--eq-tol", "1e-6", "--res-tol", "0.0"]])
    def test_printed_block_equals_asdict(self, capsys, options):
        args = build_parser().parse_args(["example33", *options])
        tol = cli._policy_from(args)
        assert (dumps_report({"policy": cli._policy_obj(tol)})
                == dumps_report({"policy": dataclasses.asdict(tol)}))
        code, out, _ = run(capsys, ["example33", *options])
        assert list(out["policy"].items()) == list(
            dataclasses.asdict(tol).items())


class TestParserReuse:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_option_value_does_not_carry_over(self, capsys):
        argv = ["fuzz", "--theorem", "L2_1", "--dim", "2", "--trials", "1"]
        _, out, _ = run(capsys, argv + ["--res-tol", "1e-7"])
        assert out["policy"]["residual_tol"] == 1e-7
        _, out, _ = run(capsys, argv)
        assert out["policy"]["residual_tol"] == DEFAULT_POLICY.residual_tol

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--trials", "1"])
        assert exc.value.code == 2
        assert "--theorem" in capsys.readouterr().err
        code, out, _ = run(capsys, ["example33"])
        assert code == 0 and out["report"]["verdict"] == "pass"


class _Parsed(Exception):
    """Raised in place of running a command; carries main's namespace."""


def _parse_outcome(capsys, parse):
    """How a parse ends: ("args", namespace) or ("exit", code, stdout,
    stderr)."""
    try:
        args = parse()
    except _Parsed as parsed:
        args = parsed.args[0]
    except SystemExit as exc:
        captured = capsys.readouterr()
        return ("exit", exc.code, captured.out, captured.err)
    return ("args", args)


class TestHandOff:
    """main hands argv to the subcommand's parser; every outcome must be the
    one the full parser gives: the namespace, or the exit code with the
    same usage and error text."""

    @pytest.mark.parametrize("argv", [
        ["compute", "--kind", "pcore", "--input", "a.json"],
        ["verify", "--theorem", "L2_1", "--input", "x.json", "--eq-tol", "1e-9"],
        ["fuzz", "--theorem", "T4_1", "--dims", "3,2", "--trials", "2",
         "--seed", "-1", "--res-tol", "1e-7"],
        ["example33"],
        ["verify", "-h"],
        ["fuzz", "--trials", "1"],
        ["verify", "--theorem", "L2_1", "--bogus"],
        ["compute", "--kind", "pcore", "--input", "a.json", "stray"],
        ["fuzz", "--theorem=T4_1"],
        ["fuzz", "--theorem", "T4_1", "--trials", "x"],
        ["verify", "--theorem", "L2_1", "--", "x.json"],
        ["verify", "--theorem", "L2_1", "--version"],
        [],
        ["-h"],
        ["--version"],
        ["bogus"],
    ], ids=["compute", "verify", "fuzz", "example33", "verify-help",
            "missing-theorem", "unknown-option", "stray-positional",
            "equals-form", "bad-int", "separator", "late-version", "empty",
            "help", "version", "unknown-command"])
    def test_same_outcome_as_full_parser(self, capsys, monkeypatch, argv):
        def parsed(args):
            raise _Parsed(args)

        monkeypatch.setattr(cli, "_policy_from", parsed)
        full = _parse_outcome(capsys,
                              lambda: build_parser().parse_args(argv))
        assert _parse_outcome(capsys, lambda: main(argv)) == full


class TestExample33Command:
    def test_exit_zero_and_values(self, capsys):
        code, out, err = run(capsys, ["example33"])
        assert code == 0
        report = out["report"]
        assert report["verdict"] == "pass"
        apc = parse_matrix(report["witnesses"]["a_pcore"])
        assert np.allclose(apc, [[-1j, 0], [0, 0]])
        spc = parse_matrix(report["witnesses"]["sum_pcore"])
        assert np.allclose(spc, 0.5 * np.array([[-1j, 1], [-1, -1j]]))
        assert "note" in report["witnesses"]
        assert "annihilation" in report["witnesses"]
