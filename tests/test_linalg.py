import inspect
import io
import itertools
import math
import pathlib
import tokenize

import numpy as np
import pytest
import sympy as sp
from numpy.linalg import LinAlgError

import geninv.generators as generators
import geninv.inverses as inverses
import geninv.linalg as linalg
import geninv.theorems as theorems
from geninv.generators import fuzz_dims, gen_with_index, instance_for, trial_seed
from geninv.inverses import _CoreEP
from geninv.linalg import (
    DEFAULT_POLICY,
    DimensionError,
    TolerancePolicy,
    _assemble,
    _eye,
    _inv,
    _Named,
    _power,
    _qr,
    _svd,
    _svd_right,
    _svdvals,
    _two_eye,
    approx_equal,
    as_matrix,
    frobenius,
    is_nilpotent,
    is_nilpotent_product,
    numerical_rank,
    product_with_scale,
    zero_product,
)
from geninv.theorems import THEOREM_SYMBOLS, run_check

from oracles import (exact_power_is_zero, exact_rank, mp_power_ranks,
                     same_column_space)


def crandn(rg, *shape):
    return (rg.standard_normal(shape) + 1j * rg.standard_normal(shape)) / np.sqrt(2)


class TestArithmetic:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0], [0, 0]])

    @pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.nan),
                                     complex(np.inf, 0), complex(0, -np.inf)])
    def test_non_finite_part_rejected(self, bad):
        A = np.zeros((2, 3), dtype=np.complex128)
        A[1, 2] = bad
        with pytest.raises(ValueError):
            as_matrix(A)
        with pytest.raises(ValueError):
            as_matrix(A.T)

    def test_three_dimensional_rejected(self):
        with pytest.raises(DimensionError):
            as_matrix(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("fn", [product_with_scale, zero_product,
                                    is_nilpotent_product])
    def test_overflowed_product_rejected(self, fn):
        # finite factors whose product overflows: the error names the word
        big = 1e200 * np.eye(3)
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="^the product XX overflowed$"):
            fn(("X", "X"), _Named(X=big))


# Each judged product's table word per id: the words the checks hand to
# zero_product and is_nilpotent_product.
_JUDGED_WORDS = {
    **{tid: [word for _, word in rows]
       for tid, rows in theorems._VANISHING.items()},
    **{tid: [word] for tid, word in theorems.COUPLING.items()},
    "L2_4": list(theorems._ANNIHILATIONS),
    "T3_1": [theorems._CORNER],
    "EX3_3": [theorems._CORNER],
}


class TestJudgedWords:
    """Every word a check judges as a product is nonempty and conforms on
    its id's fuzz instance, so the product reader needs no shape test."""

    @pytest.mark.parametrize("theorem_id", sorted(_JUDGED_WORDS))
    def test_words_conform(self, theorem_id):
        symbols = THEOREM_SYMBOLS[theorem_id]
        block_dims = [(2, 3), (3, 2)] if len(symbols) == 4 else []
        for dims in [fuzz_dims(theorem_id), *block_dims]:
            values = (instance_for(theorem_id, dims, trial_seed(3, 0)).matrices
                      if symbols else {})
            named = theorems._Instance(**theorems._matrices(
                symbols, [values[s] for s in symbols], DEFAULT_POLICY))
            for word in _JUDGED_WORDS[theorem_id]:
                assert word, theorem_id
                shapes = [named[key].shape for key in word]
                assert all(left[1] == right[0] for left, right
                           in zip(shapes, shapes[1:])), (theorem_id, word)
                P, scale = product_with_scale(word, named)
                assert P.shape == (shapes[0][0], shapes[-1][1])
                assert scale == math.prod(frobenius(named[k]) for k in word)


class TestNamed:
    def test_missing_unstarred_key_raises(self):
        with pytest.raises(KeyError):
            _Named(A=np.eye(2))["B"]


class TestFrobenius:
    """frobenius equals np.linalg.norm bit for bit, whatever the layout."""

    def cases(self):
        rg = np.random.default_rng(70)
        A = crandn(rg, 7, 5)
        # a layout whose K-order sum of squares rounds differently from
        # its C-order one, so an order other than numpy's shows
        big = crandn(np.random.default_rng(71), 40, 30)
        return [A, A.T, A.conj().T, big.T, np.asfortranarray(big),
                big[::2, 1::3], big[:, ::-2].T,
                np.asfortranarray(A), A.real, A.real.T, A.real[::2],
                np.arange(6).reshape(2, 3), [[1.5, -2.0], [0.25, 3.0]],
                np.zeros((0, 3), dtype=np.complex128), np.zeros((2, 0)),
                np.zeros((3, 3), dtype=np.complex128)]

    def test_bits_equal_numpy_norm(self):
        for M in self.cases():
            got = frobenius(M)
            assert type(got) is float
            assert (np.float64(got).tobytes()
                    == np.float64(np.linalg.norm(M)).tobytes())

    @pytest.mark.parametrize("j", [600, -600, 1000, -1000])
    def test_power_of_two_scaling_is_exact(self, j):
        # the plain sum of squares overflows (j > 0) or underflows (j < 0)
        # here; the norm is rescaled, not lost, and no warning escapes
        for M in self.cases()[:7]:
            got = frobenius(2.0 ** j * M)
            assert type(got) is float
            assert got == 2.0 ** j * frobenius(M)

    def test_zero_and_non_finite_entries(self):
        Z = np.zeros((3, 3), dtype=np.complex128)
        assert frobenius(Z) == 0.0
        for value in (np.inf, 1j * np.inf, np.nan):
            M = Z.copy()
            M[1, 2] = value
            assert (np.float64(frobenius(M)).tobytes()
                    == np.float64(np.linalg.norm(M)).tobytes())


def same_bytes(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def assert_right_factor_bits(M):
    """_svd_right(M) is s and Vh of numpy's thin SVD, bit for bit."""
    _, s, Vh = np.linalg.svd(M, full_matrices=False)
    got = _svd_right(M)
    assert len(got) == 2
    assert same_bytes(got[0], s) and same_bytes(got[1], Vh), M.shape


@pytest.mark.filterwarnings("error")
class TestKernel:
    """The kernel equals np.linalg and np.block bit for bit, errors
    included."""

    SQUARE = (1, 2, 3, 4, 8, 16)
    SHAPES = [(n, n) for n in SQUARE] + [(32, 16), (128, 64)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_svd_bits_equal_numpy(self, shape):
        M = crandn(np.random.default_rng(sum(shape)), *shape)
        got = _svd(M)
        assert len(got) == 3
        assert all(same_bytes(g, w) for g, w in zip(got, np.linalg.svd(M)))
        assert_right_factor_bits(M)
        assert same_bytes(_svdvals(M), np.linalg.svd(M, compute_uv=False))

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 8, 9, 16, 64))
    def test_right_factor_on_both_sides_of_lapacks_path_rule(self, n):
        # zgesdd QR-factors a stack with m >= floor(17n/9) rows itself and
        # works on R; _svd_right takes the same QR only there
        rg = np.random.default_rng(400 + n)
        cut = 17 * n // 9
        for m in sorted({max(n, cut - 2), max(n, cut - 1), cut, cut + 1,
                         2 * n + 3}):
            for rank in {n, max(1, n // 2)}:
                M = crandn(rg, m, rank) @ crandn(rg, rank, n)
                assert_right_factor_bits(M)

    def test_right_factor_of_every_generated_stack(self, monkeypatch):
        # each sampler at each of its dims, up to the 512 x 256 stack of a
        # pair id at n = 16
        stacks = []
        monkeypatch.setattr(generators, "_svd_right",
                            lambda M: stacks.append(M) or _svd_right(M))
        samplers = {row[3]: row for row in generators._SAMPLERS.values()}
        for default, lo, hi, sample in samplers.values():
            for dims in itertools.product(range(lo, hi + 1),
                                          repeat=len(default)):
                sample(*dims, trial_seed(3, 0))
        shapes = {M.shape for M in stacks}
        assert max(shapes) == (512, 256)
        assert {m >= 17 * n // 9 for m, n in shapes} == {True, False}
        for M in stacks:
            assert_right_factor_bits(M)

    @pytest.mark.parametrize("n", SQUARE)
    def test_solve_and_inv_bits_equal_numpy(self, n):
        rg = np.random.default_rng(100 + n)
        A = crandn(rg, n, n)
        assert same_bytes(_inv(A), np.linalg.inv(A))
        assert same_bytes(_inv(A), np.linalg.solve(A, np.eye(n)))

    def test_strided_input(self):
        M = crandn(np.random.default_rng(5), 8, 8)
        for view in (M[:5, :5], M.T, M[::2, 1::2]):
            assert all(same_bytes(g, w) for g, w in
                       zip(_svd(view), np.linalg.svd(view)))

    def test_nan_raises_numpys_error(self):
        M = np.eye(4, dtype=np.complex128)
        M[1, 2] = np.nan
        tall = np.vstack([M, M])
        for call in (lambda: _svd(M), lambda: _svd_right(M),
                     lambda: _svd_right(tall), lambda: _svdvals(M)):
            with pytest.raises(LinAlgError) as err:
                call()
            assert str(err.value) == "SVD did not converge"

    def test_inf_returns_numpys_nan_bits(self):
        M = np.eye(4, dtype=np.complex128)
        M[1, 2] = np.inf
        got, want = _svd(M), np.linalg.svd(M)
        assert np.isnan(got[1]).any()
        assert all(same_bytes(g, w) for g, w in zip(got, want))
        assert same_bytes(_svdvals(M), np.linalg.svd(M, compute_uv=False))

    def test_singular_raises_numpys_error(self):
        Z = np.zeros((3, 3), dtype=np.complex128)
        with pytest.raises(LinAlgError) as err:
            _inv(Z)
        assert str(err.value) == "Singular matrix"

    def test_error_state_is_restored_after_a_raise(self):
        before = np.geterr()
        M = np.eye(4, dtype=np.complex128)
        M[1, 2] = np.nan
        with pytest.raises(LinAlgError):
            _svd(M)
        assert np.geterr() == before
        with pytest.raises(LinAlgError):
            _inv(np.zeros((3, 3), dtype=np.complex128))
        assert np.geterr() == before

    def test_enclosing_error_state_stays_in_force(self):
        M = crandn(np.random.default_rng(9), 4, 4)
        Z = np.zeros((3, 3), dtype=np.complex128)
        big = np.full(2, 1e300)
        with np.errstate(over="raise"):
            for call in (lambda: _svd(M), lambda: _svdvals(M),
                         lambda: _inv(M), lambda: _qr(M), lambda: _inv(Z)):
                try:
                    call()
                except LinAlgError:
                    pass
                assert np.geterr()["over"] == "raise"
                with pytest.raises(FloatingPointError):
                    big * big

    def test_eye_is_a_read_only_identity(self):
        eye = _eye(3)
        assert same_bytes(eye, np.eye(3, dtype=np.complex128))
        assert not eye.flags.writeable
        with pytest.raises(ValueError):
            eye[0, 0] = 2.0
        assert _eye(3) is eye

    @pytest.mark.parametrize("n", SQUARE)
    def test_power_bits_equal_numpy(self, n):
        A = crandn(np.random.default_rng(200 + n), n, n)
        for k in range(10):
            assert same_bytes(_power(A, k), np.linalg.matrix_power(A, k))

    def test_power_of_strided_input(self):
        M = crandn(np.random.default_rng(6), 8, 8)
        for view in (M[:5, :5], M.T, M[::2, 1::2]):
            for k in range(10):
                assert same_bytes(_power(view, k),
                                  np.linalg.matrix_power(view, k))

    def test_identities_are_read_only(self):
        A = crandn(np.random.default_rng(7), 4, 4)
        assert _power(A, 0) is _eye(4)
        two = _two_eye(4)
        assert same_bytes(two, 2.0 * np.eye(4, dtype=np.complex128))
        assert _two_eye(4) is two
        for shared in (_power(A, 0), two):
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared[0, 0] = 3.0

    @pytest.mark.parametrize("n", SQUARE)
    def test_qr_bits_equal_numpy(self, n):
        M = crandn(np.random.default_rng(300 + n), n, n)
        Q, r = _qr(M)
        Qn, Rn = np.linalg.qr(M)
        assert same_bytes(Q, Qn) and same_bytes(r, np.diagonal(Rn))

    @pytest.mark.parametrize("na,nd", [(1, 1), (3, 3), (4, 2), (1, 8), (8, 1)])
    def test_assemble_equals_block(self, na, nd):
        rg = np.random.default_rng(10 * na + nd)
        A, B = crandn(rg, na, na), crandn(rg, na, nd)
        C, D = crandn(rg, nd, na), crandn(rg, nd, nd)
        ZC = np.zeros((nd, na), dtype=np.complex128)
        ZA = np.zeros((na, na), dtype=np.complex128)
        ZD = np.zeros((nd, nd), dtype=np.complex128)
        for blocks in ((A, B, C, D), (A, B, ZC, D), (ZA, B, C, ZD),
                       (A.conj().T, C.conj().T, B.conj().T, D.conj().T)):
            a, b, c, d = blocks
            assert same_bytes(_assemble(*blocks), np.block([[a, b], [c, d]]))


class TestKernelIsTheOnlyCaller:
    """No code path reaches np.linalg.svd, solve, inv, qr or matrix_power, or
    np.block, around the kernel."""

    @pytest.fixture
    def numpy_linalg_blocked(self, monkeypatch):
        def blocked(*args, **kwargs):
            raise AssertionError("numpy called around the kernel")
        for name in ("svd", "solve", "inv", "qr", "matrix_power"):
            monkeypatch.setattr(np.linalg, name, blocked)
        monkeypatch.setattr(np, "block", blocked)

    def test_catalog_checks(self, numpy_linalg_blocked):
        for theorem_id in THEOREM_SYMBOLS:
            for trial in range(2):
                inst = instance_for(theorem_id, fuzz_dims(theorem_id),
                                    trial_seed(13, trial))
                run_check(theorem_id, inst.matrices)

    def test_inverse_kinds(self, numpy_linalg_blocked):
        A = gen_with_index(5, 1, 3, seed=8)
        for kind in (inverses.moore_penrose, inverses.one_three,
                     inverses.group_inverse, inverses.drazin,
                     inverses.core_inverse, inverses.pseudo_core):
            assert kind(A).certified()
        assert inverses.index(A) == 1
        inverses.spectral_idempotent(A)
        inverses.is_star_dmp(A)
        assert numerical_rank(A) == 3
        assert same_column_space(A, A)
        assert not is_nilpotent(A)

    @pytest.mark.parametrize("n,k,r", [(4, 0, 4), (4, 1, 3), (5, 2, 3),
                                       (6, 3, 2), (3, 1, 0), (5, 3, 0),
                                       (6, 6, 0)])
    def test_kernel_call_counts(self, monkeypatch, n, k, r):
        calls = {"svd": 0, "inv": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(linalg, "_svd", counted("svd", _svd))
        monkeypatch.setattr(inverses, "_inv", counted("inv", _inv))
        record = _CoreEP(gen_with_index(n, k, r, seed=n + k + r))
        assert (record.k, record.r) == (k, r)
        assert calls == {"svd": k + 1 if r else k, "inv": 0}
        record.t_inverse
        record.t_inverse
        assert calls["inv"] == 1


class TestOneResidualRule:
    """The floor max(1, scale) of every residual, equality and vanishing
    product is written once, in linalg._relative."""

    @staticmethod
    def _floor_sites():
        sites = []
        for path in sorted(pathlib.Path(linalg.__file__).parent.glob("*.py")):
            tokens = [t for t in tokenize.generate_tokens(
                          io.StringIO(path.read_text()).readline)
                      if t.type not in (tokenize.NL, tokenize.NEWLINE,
                                        tokenize.COMMENT)]
            for first, paren, one in zip(tokens, tokens[1:], tokens[2:]):
                if ((first.string, paren.string, one.string)
                        == ("max", "(", "1.0")):
                    sites.append((path.name, first.start[0]))
        return sites

    def test_floor_is_written_once_in_relative(self):
        lines, start = inspect.getsourcelines(linalg._relative)
        (site,) = self._floor_sites()
        assert site[0] == "linalg.py"
        assert start <= site[1] < start + len(lines)

    def test_relative_is_private(self):
        assert "_relative" not in linalg.__all__
        assert linalg._relative(3.0, 0.5) == 3.0
        assert linalg._relative(3.0, 4.0) == 0.75


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert numerical_rank(np.eye(5)) == 5

    def test_rank_one_complex(self):
        A = [[1j, 0], [1, 0]]
        assert numerical_rank(A) == 1
        assert exact_rank(sp.Matrix([[sp.I, 0], [1, 0]])) == 1

    def test_agrees_with_adjoint(self):
        rg = np.random.default_rng(4)
        for _ in range(25):
            A = crandn(rg, 4, 6)
            A[:, rg.integers(0, 6)] = 0
            assert numerical_rank(A) == numerical_rank(A.conj().T)


class TestApproxEqual:
    def test_reflexive(self):
        rg = np.random.default_rng(5)
        A = crandn(rg, 3, 3)
        assert approx_equal(A, A)

    def test_below_threshold(self):
        eye = np.eye(3)
        assert approx_equal(eye, eye + 1e-15 * np.ones((3, 3)))

    def test_above_threshold(self):
        assert not approx_equal([[1.0]], [[1.1]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            approx_equal(np.eye(2), np.eye(3))


class TestSameColumnSpace:
    """``linalg._same_space`` at the ranks ``numerical_rank`` gives."""

    def test_reflexive(self):
        rg = np.random.default_rng(6)
        A = crandn(rg, 4, 4)
        assert same_column_space(A, A)

    def test_orthogonal_ranges(self):
        e1 = np.zeros((2, 2)); e1[0, 0] = 1
        e2 = np.zeros((2, 2)); e2[1, 1] = 1
        assert not same_column_space(e1, e2)

    def test_matrix_and_its_square(self):
        a = np.array([[1j, 0], [1, 0]], dtype=complex)
        assert same_column_space(a, a @ a)
        # exact elimination confirms both ranges are the span of (i, 1)
        sa = sp.Matrix([[sp.I, 0], [1, 0]])
        assert exact_rank(sa) == exact_rank(sa * sa) == exact_rank(
            sa.row_join(sa * sa)) == 1

    def test_rank_mismatch_needs_no_stacked_rank(self, monkeypatch):
        shapes, real = [], linalg._svdvals
        monkeypatch.setattr(linalg, "_svdvals",
                            lambda M: shapes.append(M.shape) or real(M))
        assert not same_column_space(np.eye(3), np.diag([1.0, 1.0, 0.0]))
        assert shapes == [(3, 3), (3, 3)]


class TestIsNilpotent:
    def test_shift_block(self):
        assert is_nilpotent([[0, 1], [0, 0]])

    def test_identity(self):
        assert not is_nilpotent(np.eye(3))

    def test_small_nonzero_eigenvalue_survives(self):
        A = np.diag([1e-3, 0.0])
        assert not is_nilpotent(A)
        assert not exact_power_is_zero(sp.Matrix([[sp.Rational(1, 1000), 0],
                                                  [0, 0]]), 2)

    def test_similarity_conjugated_nilpotent(self):
        rg = np.random.default_rng(7)
        S = np.eye(4) + 0.2 * crandn(rg, 4, 4)
        N = np.diag(np.ones(3), 1)
        assert is_nilpotent(S @ N @ np.linalg.inv(S))

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_agrees_with_mp_rank_chain(self, n):
        # S J S^-1, J nilpotent with a random Jordan structure, and the same
        # with one eigenvalue lam set on J's last diagonal entry: 0.3 is kept,
        # 1e-14 is below the rank cut of both tests
        rg = np.random.default_rng(70 + n)
        S = np.eye(n) + 0.2 * crandn(rg, n, n)
        Sinv = np.linalg.inv(S)
        for _ in range(2):
            J = np.diag((rg.random(n - 1) < 0.7).astype(complex), 1)
            for lam in (0.0, 1e-14, 0.3):
                J[-1, -1] = lam
                P = S @ J @ Sinv
                assert is_nilpotent(P) == (lam < 1e-10)
                assert is_nilpotent(P) == (mp_power_ranks(P)[-1] == 0)

    def test_product(self):
        rg = np.random.default_rng(8)
        S = np.eye(4) + 0.2 * crandn(rg, 4, 4)
        N = np.diag(np.ones(3), 1)
        named = _Named(S=S, N=N, I=np.eye(4), T=np.linalg.inv(S))
        assert is_nilpotent_product(("S", "N", "T"), named)
        assert not is_nilpotent_product(("S", "I", "T"), named)


class TestTolerancePolicy:
    def test_defaults(self):
        assert DEFAULT_POLICY.rank_rel_tol == 1e-10
        assert DEFAULT_POLICY.eq_rel_tol == 1e-8
        assert DEFAULT_POLICY.residual_tol == 1e-8

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TolerancePolicy(rank_rel_tol=1.5)
        with pytest.raises(ValueError):
            TolerancePolicy(eq_rel_tol=-1e-9)
