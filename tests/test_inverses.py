import math

import numpy as np
import pytest

import geninv.inverses as inverses
import geninv.linalg as linalg
from geninv.linalg import (
    DEFAULT_POLICY,
    DimensionError,
    approx_equal,
    rel_residual,
)
from geninv.inverses import (
    GenInverseResult,
    InverseNotDefinedError,
    core_inverse,
    drazin,
    group_inverse,
    index,
    is_star_dmp,
    moore_penrose,
    one_three,
    pseudo_core,
    spectral_idempotent,
)
from geninv.generators import gen_star_dmp, gen_with_index

from oracles import (
    defining_triple_max_residual,
    group_inverse_factorization_oracle,
    mp_power_ranks,
    pseudo_core_linear_oracle,
    same_column_space,
)

A33 = np.array([[1j, 0], [0, 0]], dtype=complex)
B33 = np.array([[0, 0], [1, 0]], dtype=complex)
SHIFT = np.array([[0, 1], [0, 0]], dtype=complex)
MIXED = np.array([[1j, 0], [1, 0]], dtype=complex)   # index 1, rank 1


def crandn(rg, *shape):
    return (rg.standard_normal(shape) + 1j * rg.standard_normal(shape)) / np.sqrt(2)


class TestIndex:
    def test_identity(self):
        assert index(np.eye(4)) == 0

    def test_order_two_nilpotent(self):
        assert index(SHIFT) == 2

    def test_mixed_rank_one(self):
        assert index(MIXED) == 1

    def test_bounded_by_dimension(self):
        rg = np.random.default_rng(11)
        for _ in range(20):
            n = int(rg.integers(1, 7))
            A = crandn(rg, n, n)
            if rg.integers(0, 2) and n > 1:
                A[:, 0] = A[:, 1]
            assert 0 <= index(A) <= n


def first_repeated_rank(ranks):
    """The index read off a rank chain: its first repeated rank."""
    return next((k for k in range(len(ranks) - 1) if ranks[k] == ranks[k + 1]),
                len(ranks) - 1)


class TestEarlyStoppingIndex:
    """index() counts the steps of the staircase deflation; it must give the
    index a matrix was built with, and for n <= 8 the first repeated rank
    of a 50-digit rank chain of its powers."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_generated_matches_full_chain(self, scale):
        for n in range(1, 17):
            for k in range(0, min(n - 1, 5) + 1):
                ranks = [n] if k == 0 else sorted({0, (n - k) // 2, n - k})
                for r in ranks:
                    A = scale * gen_with_index(
                        n, k, r, np.random.SeedSequence([n, k, r]))
                    assert index(A) == k, (n, k, r)
                    # the 50-digit chain costs up to 0.1 s a matrix at n = 8,
                    # so it checks the largest core rank of each (n, k) once
                    if scale == 1.0 and n <= 8 and r == n - k:
                        assert first_repeated_rank(mp_power_ranks(A)) == k

    def test_empty_matrix(self):
        assert index(np.zeros((0, 0), dtype=complex)) == 0

    def test_zero_matrices(self):
        for n in range(1, 17):
            assert index(np.zeros((n, n), dtype=complex)) == 1

    def test_nilpotent_jordan_block_has_full_index(self):
        for n in range(1, 17):
            A = np.diag(np.ones(n - 1), 1).astype(complex)
            assert index(A) == n

    def test_invertible(self):
        rg = np.random.default_rng(23)
        for n in range(1, 17):
            assert index(crandn(rg, n, n)) == 0


@pytest.mark.parametrize("fn", [index, one_three, group_inverse, drazin,
                                core_inverse, pseudo_core, is_star_dmp,
                                spectral_idempotent])
def test_non_square_input_raises_dimension_error(fn):
    with pytest.raises(DimensionError, match=r"got shape \(3, 4\)"):
        fn(np.ones((3, 4)))


class TestMoorePenrose:
    def test_identity(self):
        res = moore_penrose(np.eye(3))
        assert approx_equal(res.inverse, np.eye(3))
        assert res.certified()

    def test_zero_matrix_transposed_shape(self):
        res = moore_penrose(np.zeros((2, 3)))
        assert res.inverse.shape == (3, 2)
        assert np.all(res.inverse == 0)
        assert res.certified()

    def test_rank_one_value(self):
        res = moore_penrose([[1, 1], [0, 0]])
        assert approx_equal(res.inverse, [[0.5, 0], [0.5, 0]])
        assert set(res.residuals) == {"p1", "p2", "p3", "p4"}
        assert res.certified()

    def test_random_rectangular(self):
        rg = np.random.default_rng(12)
        for _ in range(10):
            A = crandn(rg, 5, 3)
            assert moore_penrose(A).certified()


class TestOneThree:
    def test_identity(self):
        assert approx_equal(one_three(np.eye(2)).inverse, np.eye(2))

    def test_diagonal(self):
        res = one_three(np.diag([2.0, 0.0]))
        assert approx_equal(res.inverse, np.diag([0.5, 0.0]))

    def test_square_of_fixed_matrix(self):
        a2 = A33 @ A33     # diag(-1, 0)
        res = one_three(a2)
        assert approx_equal(res.inverse, np.diag([-1.0, 0.0]))
        assert res.certified()
        assert set(res.residuals) == {"p1", "p3"}


class TestGroupInverse:
    def test_identity(self):
        assert approx_equal(group_inverse(np.eye(2)).inverse, np.eye(2))

    def test_rank_one_mixed(self):
        res = group_inverse(MIXED)
        expected = np.array([[-1j, 0], [-1, 0]], dtype=complex)
        assert approx_equal(res.inverse, expected)
        assert approx_equal(res.inverse,
                            group_inverse_factorization_oracle(MIXED))
        assert res.certified()
        assert res.index_used == 1

    def test_nilpotent_has_no_group_inverse(self):
        with pytest.raises(InverseNotDefinedError) as excinfo:
            group_inverse(SHIFT)
        assert excinfo.value.index == 2
        assert "index 2" in str(excinfo.value)


class TestDrazin:
    def test_nilpotent_gives_zero(self):
        res = drazin(SHIFT)
        assert np.all(res.inverse == 0)
        assert res.index_used == 2
        assert res.certified()

    def test_fixed_nilpotent(self):
        assert np.all(drazin(B33).inverse == 0)

    def test_diagonal(self):
        res = drazin(np.diag([2.0, 0.0]))
        assert approx_equal(res.inverse, np.diag([0.5, 0.0]))

    def test_certified_on_generated(self):
        for trial in range(30):
            rg = np.random.default_rng(1300 + trial)
            n = int(rg.integers(2, 9))
            k = int(rg.integers(0, min(3, n) + 1))
            r = n if k == 0 else int(rg.integers(0, n - k + 1))
            A = gen_with_index(n, k, r, 1300 + trial)
            res = drazin(A)
            assert res.certified(), res.residuals


class TestSpectralIdempotent:
    def test_invertible_gives_zero(self):
        assert np.linalg.norm(spectral_idempotent(np.diag([1.0, 2.0]))) < 1e-12

    def test_nilpotent_gives_identity(self):
        assert approx_equal(spectral_idempotent(SHIFT), np.eye(2))

    def test_fixed_example(self):
        assert approx_equal(spectral_idempotent(A33), np.diag([0.0, 1.0]))

    def test_idempotent_and_commutes(self):
        from geninv.linalg import zero_product
        for trial in range(15):
            A = gen_with_index(5, 2, 2, 1400 + trial)
            P = spectral_idempotent(A)
            assert approx_equal(P @ P, P)
            assert np.linalg.norm(P @ A - A @ P) <= 1e-8 * max(
                1.0, np.linalg.norm(P) * np.linalg.norm(A))
            k = index(A)
            assert zero_product([P, np.linalg.matrix_power(A, k)])[1]


class TestCoreInverse:
    def test_identity(self):
        assert approx_equal(core_inverse(np.eye(2)).inverse, np.eye(2))

    def test_rank_one_idempotent_like(self):
        res = core_inverse([[1, 1], [0, 0]])
        assert approx_equal(res.inverse, [[1, 0], [0, 0]])
        assert res.certified()

    def test_index_two_rejected(self):
        with pytest.raises(InverseNotDefinedError):
            core_inverse(SHIFT)

    def test_characterizing_conditions(self):
        for trial in range(15):
            A = gen_with_index(5, 1, 3, 1500 + trial)
            res = core_inverse(A)
            X = res.inverse
            assert res.certified()
            assert same_column_space(X, A)
            assert same_column_space(X.conj().T, A)

    def test_each_rank_taken_once(self, monkeypatch):
        # rank(X), which X* shares, and one stacked rank per space; rank(A)
        # is the staircase's first count
        calls, real = [], linalg._svdvals
        monkeypatch.setattr(linalg, "_svdvals",
                            lambda M: calls.append(M.shape) or real(M))
        assert core_inverse(gen_with_index(5, 1, 3, seed=1500)).certified()
        assert calls == [(5, 5), (5, 10), (5, 10)]


class TestPseudoCore:
    def test_fixed_instance(self):
        res = pseudo_core(A33)
        assert approx_equal(res.inverse, [[-1j, 0], [0, 0]])
        assert res.certified()
        assert res.index_used == 1

    def test_nilpotent_gives_zero(self):
        res = pseudo_core(SHIFT)
        assert np.all(res.inverse == 0)
        assert res.certified()

    def test_index_one_equals_unique_system_solution(self):
        expected = 0.5 * np.array([[-1j, 1], [-1, -1j]], dtype=complex)
        res = pseudo_core(MIXED)
        assert approx_equal(res.inverse, expected)
        oracle, unique = pseudo_core_linear_oracle(MIXED)
        assert unique
        assert approx_equal(res.inverse, oracle)
        assert defining_triple_max_residual(MIXED, oracle, 1) < 1e-10

    def test_oracle_agreement_small_dims(self):
        for trial in range(40):
            rg = np.random.default_rng(1600 + trial)
            n = int(rg.integers(2, 5))
            k = int(rg.integers(0, min(3, n) + 1))
            r = n if k == 0 else int(rg.integers(0, n - k + 1))
            A = gen_with_index(n, k, r, 1600 + trial)
            res = pseudo_core(A)
            oracle, unique = pseudo_core_linear_oracle(A)
            assert unique
            diff = np.linalg.norm(res.inverse - oracle) / max(
                1.0, np.linalg.norm(oracle))
            assert diff < 1e-8, diff

    def test_consistency_ladder(self):
        for trial in range(15):
            A = gen_with_index(4, 1, 2, 1700 + trial)
            assert approx_equal(pseudo_core(A).inverse, core_inverse(A).inverse)
        for trial in range(10):
            A = gen_with_index(4, 0, 4, 1750 + trial)
            inv = np.linalg.inv(A)
            for fn in (moore_penrose, one_three, group_inverse, drazin,
                       core_inverse, pseudo_core):
                assert approx_equal(fn(A).inverse, inv)

    def test_weak_agreement_identity(self):
        # A A_pc A^(k+1) = A^(k+1) with k the index
        for trial in range(15):
            rg = np.random.default_rng(1800 + trial)
            n = int(rg.integers(2, 7))
            k = int(rg.integers(0, min(2, n) + 1))
            r = n if k == 0 else int(rg.integers(1, n - k + 1)) if n - k else 0
            A = gen_with_index(n, k, r, 1800 + trial)
            X = pseudo_core(A).inverse
            k = index(A)
            Ak1 = np.linalg.matrix_power(A, k + 1)
            assert np.linalg.norm(A @ X @ Ak1 - Ak1) <= 1e-8 * max(
                1.0, np.linalg.norm(Ak1))

    def test_adjoint_also_certifies(self):
        for trial in range(15):
            A = gen_with_index(5, 2, 2, 1900 + trial)
            assert pseudo_core(A.conj().T).certified()


def _defining_triple(A, X, k):
    """The residuals of X A^(k+1) = A^k, A X^2 = X, (AX)* = AX, k >= 1."""
    A = np.asarray(A, dtype=complex)
    return inverses._residuals("pseudo_core", A, np.asarray(X, dtype=complex),
                               linalg._power(A, k))


class TestVerifyDefiningTriple:
    """The pseudo core defining triple, replayed on a given X through the
    rows of ``inverses._DEFINING``."""

    def test_identity_all_zero(self):
        res = _defining_triple(np.eye(2), np.eye(2), 1)
        assert all(v == 0.0 for v in res.values())

    def test_certificate_replay(self):
        for trial in range(10):
            A = gen_with_index(5, 2, 2, 2000 + trial)
            result = pseudo_core(A)
            res = _defining_triple(A, result.inverse,
                                   max(result.index_used, 1))
            assert max(res.values()) <= DEFAULT_POLICY.residual_tol

    def test_wrong_inverse_detected(self):
        res = _defining_triple(np.eye(2), np.zeros((2, 2)), 1)
        assert res["pc1"] == pytest.approx(1.0)


class TestStarDmp:
    def test_fixed_example(self):
        assert is_star_dmp(A33) == (True, 1)

    def test_hermitian(self):
        rg = np.random.default_rng(21)
        H = crandn(rg, 4, 4)
        H = H + H.conj().T
        assert is_star_dmp(H) == (True, 1)

    def test_negative_case(self):
        assert is_star_dmp(np.array([[1, 1], [0, 0]], dtype=complex)) == (False, 0)

    def test_nilpotent_is_star_dmp(self):
        flag, witness = is_star_dmp(SHIFT)
        assert flag and witness >= 1

    def test_nonsingular_is_star_dmp(self):
        # index 0: A itself is invertible, so its MP and group inverses agree
        M = (1e6 * gen_star_dmp(8, 0, 2, 23)
             + 0.3 * np.triu(np.random.default_rng(0).standard_normal((8, 8)), 1))
        assert index(M) == 0
        assert is_star_dmp(M) == (True, 1)

    @pytest.mark.parametrize("n,r,seed", [(12, 8, 2431), (16, 12, 583)])
    def test_ill_conditioned_core_power(self, n, r, seed):
        # core eigenvalues spread over [0.1, 10], so A^3 restricted to its
        # core has condition about 1e6; A is star-DMP of index 3 by
        # construction, and the witness is the index
        assert is_star_dmp(gen_star_dmp(n, r, 3, seed)) == (True, 3)


def hand_residuals(kind, A, X, Ak=None):
    """The defining-equation residuals as each inverse kind wrote them out
    before ``inverses._DEFINING`` held them as words: the reference the word
    reader must match bit for bit.  Ak is A^max(k,1)."""
    AX, XA = A @ X, X @ A
    p1 = rel_residual(AX @ A, A)
    if kind == "moore_penrose":
        return {"p1": p1, "p2": rel_residual(XA @ X, X),
                "p3": rel_residual(AX, AX.conj().T),
                "p4": rel_residual(XA, XA.conj().T)}
    if kind == "one_three":
        return {"p1": p1, "p3": rel_residual(AX, AX.conj().T)}
    if kind == "group":
        return {"p1": p1, "p2": rel_residual(XA @ X, X),
                "commute": rel_residual(XA, AX)}
    if kind == "core":
        return {"p1": rel_residual(A @ X @ A, A),
                "column_space": 0.0 if same_column_space(X, A) else 1.0,
                "row_space":
                    0.0 if same_column_space(X.conj().T, A) else 1.0}
    outer = rel_residual(XA @ Ak, Ak), rel_residual(AX @ X, X)
    if kind == "drazin":
        return {"d1": outer[0], "d2": outer[1],
                "commute": rel_residual(XA, AX)}
    return {"pc1": outer[0], "pc2": outer[1],
            "pc3": rel_residual(AX, AX.conj().T)}


def _bits(residuals):
    return [(label, float(value).hex()) for label, value in residuals.items()]


class TestDefiningWords:
    """Every certificate is read off the words of ``inverses._DEFINING``."""

    KINDS = (("moore_penrose", moore_penrose), ("one_three", one_three),
             ("group", group_inverse), ("drazin", drazin),
             ("core", core_inverse), ("pseudo_core", pseudo_core))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
    def test_equal_the_hand_written_residuals(self, n):
        for k in range(min(n, 4) + 1):
            for r in sorted({n - k, (n - k) // 2}) if k else [n]:
                for c in (1e-6, 1.0, 1e6):
                    A = c * gen_with_index(n, k, r, seed=100 * n + 10 * k + r)
                    Ak = np.linalg.matrix_power(A, max(k, 1))
                    for kind, fn in self.KINDS:
                        if kind in ("group", "core") and k > 1:
                            continue
                        result = fn(A)
                        ref = hand_residuals(kind, A, result.inverse, Ak)
                        assert _bits(result.residuals) == _bits(ref), (
                            n, k, r, c, kind)

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (1, 4), (16, 7)])
    def test_rectangular_moore_penrose(self, shape):
        rg = np.random.default_rng(sum(shape))
        for c in (1e-6, 1.0, 1e6):
            A = c * crandn(rg, *shape)
            A[:, 0] = 0.0
            result = moore_penrose(A)
            ref = hand_residuals("moore_penrose", A, result.inverse)
            assert _bits(result.residuals) == _bits(ref)

    def test_certificate_holds_the_rows_of_the_table(self, monkeypatch):
        rows = inverses._DEFINING["pseudo_core"]
        monkeypatch.setitem(inverses._DEFINING, "pseudo_core", rows[:2])
        A = gen_with_index(4, 2, 1, seed=7)
        assert list(pseudo_core(A).residuals) == ["pc1", "pc2"]

    def test_hermitian_words_take_the_adjoint_through_the_reader(
            self, monkeypatch):
        # pc3, p3 and p4, and the core inverse's row-space test of X*, reach
        # linalg._adj through the word reader, so an involution other than *
        # would change one function
        seen, real = [], linalg._adj
        monkeypatch.setattr(linalg, "_adj",
                            lambda M: seen.append(M.copy()) or real(M))
        A2 = gen_with_index(4, 2, 1, seed=7)
        A1 = gen_with_index(4, 1, 2, seed=7)    # index 1, for the core inverse
        for fn, A, starred in ((pseudo_core, A2, "P"), (one_three, A2, "P"),
                               (moore_penrose, A2, "PQ"),
                               (core_inverse, A1, "X")):
            seen.clear()
            X = fn(A).inverse
            named = {"P": A @ X, "Q": X @ A, "X": X}
            assert len(seen) == len(starred), fn.__name__
            for M, symbol in zip(seen, starred):
                assert np.array_equal(M, named[symbol]), fn.__name__


class _CountingProducts(np.ndarray):
    """An ndarray that counts the matrix products taken with it, its
    results included, in the list ``log``."""

    log = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.log.append(ufunc)
        plain = [x.view(np.ndarray) if isinstance(x, _CountingProducts)
                 else x for x in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        if isinstance(out, np.ndarray):
            out = out.view(_CountingProducts)
            out.log = self.log
        return out


class TestResidualProducts:
    """``_residuals`` forms XA only for the kinds whose rows name it."""

    @pytest.mark.parametrize("kind,products", [
        ("one_three", 2), ("core", 2), ("moore_penrose", 4), ("group", 4),
        ("drazin", 4), ("pseudo_core", 4)])
    def test_products_formed(self, kind, products):
        A = gen_with_index(4, 1, 3, seed=8)       # index 1: K = A
        X = pseudo_core(A).inverse
        cA, cX = A.view(_CountingProducts), X.view(_CountingProducts)
        cA.log = cX.log = log = []
        got = inverses._residuals(kind, cA, cX, cA)
        assert len(log) == products
        assert _bits(got) == _bits(inverses._residuals(kind, A, X, A))


class TestNanNeverCertifies:
    """A NaN residual makes max_residual NaN wherever it sits, and a NaN
    never certifies."""

    LABELS = ("pc1", "pc2", "pc3")

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("others", [0.0, 1e-20, 1.0])
    def test_nan_in_every_position(self, position, others):
        residuals = dict.fromkeys(self.LABELS, others)
        residuals[self.LABELS[position]] = math.nan
        result = GenInverseResult("pseudo_core", np.zeros((2, 2)), 1,
                                  residuals)
        assert math.isnan(result.max_residual)
        assert not result.certified()

    def test_finite_residuals(self):
        result = GenInverseResult("pseudo_core", np.zeros((2, 2)), 1,
                                  {"pc1": 1e-12, "pc2": 3e-8, "pc3": 0.0})
        assert result.max_residual == 3e-8
        assert not result.certified()
        assert GenInverseResult("core", np.zeros((2, 2)), 1).max_residual == 0.0

    def test_tiny_input_and_wrong_inverse(self):
        # the sum of squares of X ~ 2^600 overflowed, so pc2 read inf/inf
        A = 2.0 ** -600 * gen_with_index(4, 1, 3, seed=3)
        result = pseudo_core(A)
        assert all(math.isfinite(v) for v in result.residuals.values())
        assert result.certified()
        X = result.inverse
        wrong = GenInverseResult("pseudo_core", 2 * X, 1,
                                 _defining_triple(A, 2 * X, 1))
        assert not wrong.certified()


class TestExtremeScale:
    """Certificates keep their meaning where a plain sum of squares would
    underflow or overflow."""

    def test_pseudo_core_residuals_are_not_lost_to_underflow(self):
        # X ~ 2^520: the plain sums of squares underflowed to pc1 = pc2 = 0
        A = 2.0 ** -520 * gen_with_index(4, 1, 3, seed=3)
        residuals = pseudo_core(A).residuals
        assert 0.0 < residuals["pc2"] < 1e-13
        assert 0.0 < residuals["pc3"] < 1e-13

    @pytest.mark.parametrize("kind,shape", [
        *((moore_penrose, shape)
          for shape in ((3, 3), (3, 2), (2, 3), (1, 1), (0, 0))),
        *((one_three, shape) for shape in ((3, 3), (1, 1), (0, 0)))])
    def test_zero_matrix_has_the_zero_inverse(self, kind, shape):
        # rank zero takes the general expression of the pseudo-inverse, which
        # is the exact (positive) zero matrix, and every residual is 0
        result = kind(np.zeros(shape))
        zero = np.zeros(shape[::-1], dtype=np.complex128)
        assert result.inverse.shape == zero.shape
        assert result.inverse.tobytes() == zero.tobytes()
        assert result.residuals
        assert all(math.copysign(1.0, v) == 1.0 and v == 0.0
                   for v in result.residuals.values())

    @pytest.mark.parametrize("kind", [moore_penrose, one_three])
    def test_overflowed_inverse_is_refused(self, kind):
        # 1/1e-320 overflows: the inverse was returned with NaN entries
        with pytest.raises(ValueError, match="^the Moore-Penrose inverse is "
                           "not finite: a reciprocal singular value"), \
                np.errstate(over="ignore", invalid="ignore"):
            kind(np.diag([1e-320, 0.0, 1e-320]))

    @pytest.mark.parametrize("kind", [moore_penrose, one_three])
    def test_tiny_invertible_matrix_keeps_its_inverse(self, kind):
        # a norm-based zero test underflowed here and returned X = 0
        B = gen_with_index(4, 0, 4, seed=3)
        result = kind(1e-165 * B)
        assert result.certified()
        assert np.allclose(1e-165 * result.inverse, np.linalg.pinv(B),
                           rtol=1e-10, atol=1e-12)
