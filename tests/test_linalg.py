import hashlib

import numpy as np
import pytest
import sympy as sp

from geninv.linalg import (
    DEFAULT_POLICY,
    DimensionError,
    TolerancePolicy,
    approx_equal,
    as_matrix,
    frobenius,
    is_nilpotent,
    is_nilpotent_product,
    numerical_rank,
    power_rank_chain,
    same_column_space,
    scaled_power,
)

from oracles import exact_power_is_zero, exact_rank, mp_power_ranks


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
                np.zeros((3, 3), dtype=np.complex128), 1e300 * A,
                1e-300 * A]

    def test_bits_equal_numpy_norm(self):
        for M in self.cases():
            with np.errstate(over="ignore"):    # 1e300 * A overflows to inf
                got = frobenius(M)
                want = float(np.linalg.norm(M))
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


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

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionError):
            same_column_space(np.eye(2), np.eye(3))


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
        assert is_nilpotent_product([S, N, np.linalg.inv(S)])
        assert not is_nilpotent_product([S, np.eye(4), np.linalg.inv(S)])


class TestRankChain:
    def test_monotone_nonincreasing(self):
        rg = np.random.default_rng(9)
        for _ in range(20):
            A = crandn(rg, 5, 5)
            if rg.integers(0, 2):
                A[:, :2] = 0
            ranks = power_rank_chain(A)
            assert all(ranks[i + 1] <= ranks[i] for i in range(len(ranks) - 1))


def loop_scaled_power(A, k, tol=DEFAULT_POLICY):
    """Reference: the scaled power as a plain loop of multiply, collapse
    test, renormalize."""
    P = np.eye(A.shape[0], dtype=complex)
    nA = np.linalg.norm(A)
    for _ in range(k):
        P = P @ A
        nf = np.linalg.norm(P)
        if nf <= tol.rank_rel_tol * nA:
            return np.zeros_like(A), True
        P = P / nf
    return P, False


class TestScaledPower:
    # sha256 prefixes of scaled_power(A, k)[0].tobytes(); real matrices whose
    # products are exact, so the bytes do not depend on the BLAS kernel
    PINNED = {
        ("J", 1): "648225a018dcdd7c", ("J", 2): "89a6fa4b42d7a714",
        ("J", 3): "b4f55b9443093cae", ("J", 5): "19e70bb14146999c",
        ("N", 1): "67044ea8f5856ff9", ("N", 2): "01399f43033ed14d",
        ("N", 3): "a11d0fa11e6d07d4", ("N", 5): "5341e6b2646979a7",
        ("E", 1): "9cbc8a404b4c9c36", ("E", 2): "ff7ab40b8b3fded1",
        ("E", 3): "1d87097df968f479", ("E", 5): "5693cb346acc5ac4",
    }
    MATRICES = {
        "J": 2 * np.eye(4) + np.diag(np.ones(3), 1),   # Jordan block of 2
        "N": np.diag([1.0, 2.0, 3.0], 1),              # nilpotent, index 4
        "E": np.array([[3.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
    }

    def test_pinned_bytes(self):
        for (name, k), digest in self.PINNED.items():
            P, collapsed = scaled_power(self.MATRICES[name], k)
            assert collapsed == (name == "N" and k >= 4)
            assert hashlib.sha256(P.tobytes()).hexdigest()[:16] == digest

    def test_bitwise_equal_to_loop(self):
        rg = np.random.default_rng(13)
        for n in (1, 2, 5, 9):
            A = crandn(rg, n, n)
            A[:, 0] = 0
            N = np.triu(crandn(rg, n, n), 1)
            for M in (A, 1e-6 * A, 1e6 * A, N, np.zeros((n, n), complex)):
                for k in range(n + 2):
                    P, collapsed = scaled_power(M, k)
                    Q, ref_collapsed = loop_scaled_power(M, k)
                    assert collapsed == ref_collapsed
                    assert P.tobytes() == Q.tobytes()

    def test_rank_chain_uses_the_same_powers(self):
        rg = np.random.default_rng(14)
        A = crandn(rg, 6, 6)
        A[:, :2] = 0
        expected = [6] + [numerical_rank(scaled_power(A, k)[0])
                          for k in range(1, 7)]
        assert power_rank_chain(A) == expected
        assert power_rank_chain(np.zeros((3, 3))) == [3, 0, 0, 0]
        assert power_rank_chain(np.zeros((0, 0))) == [0]


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
